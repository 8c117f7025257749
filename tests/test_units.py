import math

import pytest
from hypothesis import example, given, strategies as st

from durpipe.units import (
    LESS_THAN_DAY,
    MORE_THAN_DAY,
    UNITS_7,
    UNITS_8,
    InvalidQuantityError,
    TemporalUnit,
    approx_match,
    closest_unit,
    coarse_of_unit,
    coarse_of_value,
    format_duration,
    inventory_of_size,
    normalize,
)

from oracles import ORACLE_SECONDS, UNIT_WORDS, bucket_unit, scan_closest_unit

ALL_UNITS = list(TemporalUnit)


def test_inventory_order_and_size():
    assert [u.word for u in UNITS_8] == [
        "second", "minute", "hour", "day", "week", "month", "year", "decade"
    ]
    assert UNITS_7 == UNITS_8[:7]
    assert int(TemporalUnit.SECOND) == 0
    assert int(TemporalUnit.DECADE) == 7


def test_canonical_seconds_match_reference_table():
    for unit in ALL_UNITS:
        assert unit.seconds == ORACLE_SECONDS[unit.word]


def test_normalize_of_one_second_is_zero():
    assert normalize(1, TemporalUnit.SECOND) == 0.0


def test_normalize_23_years():
    # ln(23 * 31,536,000) = ln(725,328,000)
    assert normalize(23, TemporalUnit.YEAR) == pytest.approx(20.40213452430379, abs=1e-9)


def test_normalize_one_day():
    assert normalize(1, TemporalUnit.DAY) == pytest.approx(11.366742954792146, abs=1e-9)


@pytest.mark.parametrize("bad", [0, -1, -0.5, float("inf"), float("nan")])
def test_normalize_rejects_bad_quantities(bad):
    with pytest.raises(InvalidQuantityError):
        normalize(bad, TemporalUnit.HOUR)


def test_closest_unit_fixed_point():
    for unit in ALL_UNITS:
        assert closest_unit(normalize(1, unit), UNITS_8) is unit


def test_closest_unit_ninety_seconds_is_minute():
    # |ln 90 - ln 60| = ln 1.5 beats both neighbors
    assert closest_unit(normalize(90, TemporalUnit.SECOND), UNITS_8) is TemporalUnit.MINUTE


def test_closest_unit_depends_on_inventory():
    v = normalize(23, TemporalUnit.YEAR)
    assert closest_unit(v, UNITS_8) is TemporalUnit.DECADE
    assert closest_unit(v, UNITS_7) is TemporalUnit.YEAR


def test_closest_unit_tie_goes_to_smaller():
    # exact geometric midpoint between second and minute
    midpoint = 0.5 * (math.log(1) + math.log(60))
    assert closest_unit(midpoint, UNITS_8) is TemporalUnit.SECOND


@pytest.mark.parametrize("value,unit8,unit3", [
    (1e17, TemporalUnit.DECADE, TemporalUnit.HOUR),
    (1e300, TemporalUnit.DECADE, TemporalUnit.HOUR),
    (-1e300, TemporalUnit.SECOND, TemporalUnit.SECOND),
])
def test_closest_unit_of_a_value_past_either_end_is_the_end_unit(value, unit8, unit3):
    # At this size every distance rounds to one float, and a scan that
    # keeps the first of equal distances picked the smallest unit.
    assert closest_unit(value, UNITS_8) is unit8
    assert closest_unit(value, UNITS_8[:3]) is unit3


_POINTS = [math.log(ORACLE_SECONDS[word]) for word in UNIT_WORDS]
_MIDPOINTS = [(a + b) / 2 for a, b in zip(_POINTS, _POINTS[1:])]


def test_closest_unit_equals_the_scan_at_every_midpoint_and_its_float_neighbours():
    for n in range(1, 9):
        for mid in _MIDPOINTS:
            for value in (math.nextafter(mid, -math.inf), mid, math.nextafter(mid, math.inf)):
                assert closest_unit(value, UNITS_8[:n]).word == scan_closest_unit(value, n), (n, value)


@given(st.integers(1, 8), st.floats(-1e6, 1e6) | st.sampled_from(_POINTS))
def test_closest_unit_equals_the_scan(n, value):
    assert closest_unit(value, UNITS_8[:n]).word == scan_closest_unit(value, n)


def test_closest_unit_reads_any_sequence_in_unit_order():
    v = normalize(3, TemporalUnit.WEEK)
    for inventory in ([TemporalUnit.HOUR, TemporalUnit.YEAR], (TemporalUnit.YEAR, TemporalUnit.HOUR)):
        assert closest_unit(v, inventory) is TemporalUnit.YEAR


def test_closest_unit_rejects_empty_inventory():
    with pytest.raises(ValueError):
        closest_unit(1.0, ())


@given(st.integers(1, 100), st.sampled_from(ALL_UNITS))
def test_closest_unit_agrees_with_boundary_oracle(q, unit):
    v = normalize(q, unit)
    assert closest_unit(v, UNITS_8).word == bucket_unit(v)


def test_approx_match_examples():
    assert approx_match(TemporalUnit.SECOND, TemporalUnit.MINUTE)
    assert not approx_match(TemporalUnit.MINUTE, TemporalUnit.DAY)
    assert approx_match(TemporalUnit.MONTH, TemporalUnit.MONTH)


def test_approx_match_symmetric_and_reflexive():
    for a in ALL_UNITS:
        assert approx_match(a, a)
        for b in ALL_UNITS:
            assert approx_match(a, b) == approx_match(b, a)
            assert approx_match(a, b) == (abs(int(a) - int(b)) <= 1)


def test_coarse_of_value_examples():
    assert coarse_of_value(normalize(1, TemporalUnit.HOUR)) == LESS_THAN_DAY
    assert coarse_of_value(normalize(2, TemporalUnit.DAY)) == MORE_THAN_DAY
    assert coarse_of_value(normalize(86_399, TemporalUnit.SECOND)) == LESS_THAN_DAY
    assert coarse_of_value(normalize(86_401, TemporalUnit.SECOND)) == MORE_THAN_DAY
    # exactly one day is not smaller than a day
    assert coarse_of_value(normalize(86_400, TemporalUnit.SECOND)) == MORE_THAN_DAY


def test_coarse_of_unit_rule():
    assert coarse_of_unit(TemporalUnit.HOUR) == LESS_THAN_DAY
    assert coarse_of_unit(TemporalUnit.DAY) == MORE_THAN_DAY
    assert coarse_of_unit(TemporalUnit.DECADE) == MORE_THAN_DAY


def test_coarse_rules_consistent_across_all_units():
    for unit in ALL_UNITS:
        assert coarse_of_unit(unit) == coarse_of_value(normalize(1, unit))


@given(st.integers(1, 100), st.sampled_from(ALL_UNITS))
def test_coarse_threshold_matches_linear_rule(q, unit):
    expected = LESS_THAN_DAY if q * unit.seconds < 86_400 else MORE_THAN_DAY
    assert coarse_of_value(normalize(q, unit)) == expected


@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.sampled_from(ALL_UNITS),
)
@example(1e-06, 1.0000000000000002e-06, TemporalUnit.SECOND)
def test_normalize_strictly_monotone(q1, q2, unit):
    if q1 == q2:
        assert normalize(q1, unit) == normalize(q2, unit)
    else:
        # adjacent floats can share one log, so strict only a step apart
        lo, hi = sorted([q1, q2])
        assert normalize(lo, unit) <= normalize(hi, unit)
        if hi > lo * (1 + 1e-9):
            assert normalize(lo, unit) < normalize(hi, unit)


def test_from_string_parsing():
    assert TemporalUnit.from_string("years") is TemporalUnit.YEAR
    assert TemporalUnit.from_string("Hour") is TemporalUnit.HOUR
    assert TemporalUnit.from_string("DECADES") is TemporalUnit.DECADE
    with pytest.raises(ValueError):
        TemporalUnit.from_string("fortnight")


def test_from_string_answers_a_repeated_word_alike_and_names_each_bad_one():
    for _ in range(2):
        assert TemporalUnit.from_string(" Weeks ") is TemporalUnit.WEEK
        for bad in ("fortnight", "fortnights", "s"):
            with pytest.raises(ValueError, match=f"unknown temporal unit: {bad!r}"):
                TemporalUnit.from_string(bad)


def test_inventory_of_size():
    assert inventory_of_size(7) == UNITS_7
    assert inventory_of_size(8) == UNITS_8
    with pytest.raises(ValueError):
        inventory_of_size(0)
    with pytest.raises(ValueError):
        inventory_of_size(9)


def test_format_duration():
    assert format_duration(1, TemporalUnit.SECOND) == "1 second"
    assert format_duration(3, TemporalUnit.HOUR) == "3 hours"
