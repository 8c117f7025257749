import hashlib
import json
import math
import os
import threading
import tracemalloc
import weakref
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
import oracles
from checkpoint_fuzz import damaged
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from durpipe import model as model_mod
from durpipe.adapters import ModelInput
from durpipe.model import (
    BaselineEncoder,
    CheckpointError,
    ConfigError,
    DualHeadModel,
    InvalidInputError,
    TrainConfig,
    evaluate_loss,
    load,
    loss_and_grads,
    predict_exact,
    predict_many,
    predict_range,
    save,
    train,
    with_inventory,
)
from durpipe.text import strip_clinging, tokenize
from durpipe.units import UNITS_7, UNITS_8, TemporalUnit


def _one_row_model(row, w_e, w_r, inventory=UNITS_8):
    """Every token hashes to the table's one row and every window is the
    mask token alone, so each mask position's vector is `row`."""
    return DualHeadModel(
        encoder=BaselineEncoder(np.array([row], dtype=float), radius=0),
        w_e=np.asarray(w_e, dtype=float),
        w_r=np.asarray(w_r, dtype=float),
        inventory=tuple(inventory),
    )


SAMPLE = ModelInput(text="The seminar lasted for [MASK] [MASK].", mask_positions=(4, 5))


def test_predict_exact_zero_weights_gives_zero():
    model = DualHeadModel.create(dim=8, seed=0, buckets=32, radius=2)
    model.w_e[:] = 0.0
    assert predict_exact(model, SAMPLE) == 0.0


def test_predict_exact_hand_computed():
    # two mask positions: summed embedding (2.0, 1.0)
    model = _one_row_model((1.0, 0.5), w_e=(1.0, 1.0), w_r=np.zeros((8, 2)))
    assert predict_exact(model, SAMPLE) == pytest.approx(3.0)


def _item_sum(model, model_input):
    """The sum of the input's window means, one window at a time."""
    tokens, encoder = model_input.text.split(), model.encoder
    return np.sum([encoder.embeddings[encoder.window_buckets(tokens, p)].mean(axis=0)
                   for p in model_input.mask_positions], axis=0)


def test_predict_range_uniform_for_zero_weights():
    model = DualHeadModel.create(dim=8, seed=0, buckets=32, radius=2)
    model.w_r[:] = 0.0
    logits = model.w_r @ _item_sum(model, SAMPLE)
    assert logits.tolist() == [0.0] * 8
    # tie broken toward the smaller unit
    assert predict_range(model, SAMPLE) is TemporalUnit.SECOND is model.inventory[np.argmax(logits)]


def test_predict_range_hand_computed_logits():
    # one-dimensional, two units, summed embedding (2.0): logits (2, -2)
    model = _one_row_model((1.0,), w_e=(0.0,), w_r=[[1.0], [-1.0]], inventory=UNITS_8[:2])
    assert predict_range(model, SAMPLE) is TemporalUnit.SECOND
    model.w_r[:] = [[-1.0], [1.0]]
    assert predict_range(model, SAMPLE) is TemporalUnit.MINUTE
    # Logits (0, 2**-1073): a softmax rounds both to probability 1/2,
    # but the larger logit still picks the unit.
    model.w_r[:] = [[0.0], [2.0 ** -1074]]
    z = np.array([0.0, 2.0 ** -1073])
    assert (np.exp(z - z.max()) == 1.0).all()
    assert predict_range(model, SAMPLE) is TemporalUnit.MINUTE


def test_predict_range_is_the_argmax_of_the_logits():
    model = DualHeadModel.create(dim=16, seed=5, buckets=64, radius=3)
    for text in ["A voyage lasting [MASK] [MASK] began.", "It was [MASK] [MASK] then."]:
        mi = ModelInput(text=text, mask_positions=(2, 3))
        s = _item_sum(model, mi)
        assert predict_range(model, mi) is model.inventory[np.argmax(model.w_r @ s)]
        # A head whose only nonzero row is s gives that row's unit.
        for u, unit in enumerate(model.inventory):
            picked = replace(model, w_r=np.zeros_like(model.w_r))
            picked.w_r[u] = s
            assert predict_range(picked, mi) is unit


def test_predict_requires_mask_positions():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    with pytest.raises(InvalidInputError):
        predict_exact(model, ModelInput(text="no masks here", mask_positions=()))
    with pytest.raises(InvalidInputError):
        predict_range(model, ModelInput(text="bad index [MASK]", mask_positions=(99,)))


def test_encoder_is_deterministic_and_position_hashed():
    enc = BaselineEncoder(np.zeros((64, 8)), radius=2)
    tokens = "The seminar lasted for [MASK] [MASK].".split()
    for p in (4, 5):
        assert np.array_equal(enc.window_buckets(tokens, p), enc.window_buckets(tokens, p))
        assert enc.window_buckets(tokens, p) == [enc.bucket(t) for t in tokens[p - 2:p + 3]]
    # clinging punctuation does not change the bucket
    assert enc.bucket("[MASK].") == enc.bucket("[MASK]")
    assert enc.bucket("Years,") == enc.bucket("years")


def _fresh_bucket(token, buckets):
    digest = hashlib.blake2b(strip_clinging(token).lower().encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


def test_bucket_memo_returns_the_fresh_hash():
    small, large = BaselineEncoder(np.zeros((64, 2))), BaselineEncoder(np.zeros((4096, 2)))
    tokens = ["Years,", "years", "YEARS", "years", "(days)", "Years,", "minutes."]
    for _ in range(2):
        for token in tokens:
            for enc in (small, large):
                assert enc.bucket(token) == _fresh_bucket(token, enc.buckets), (token, enc.buckets)
    assert small.bucket("Years,") == small.bucket("years")
    assert large.bucket("Years,") == large.bucket("years")
    assert large.window_buckets(tokens, 3) == [_fresh_bucket(t, 4096) for t in tokens]


def test_permuting_tokens_outside_window_is_invisible():
    model = DualHeadModel.create(dim=8, seed=3, buckets=128, radius=2)
    base = "alpha beta gamma delta [MASK] [MASK] epsilon zeta eta theta iota kappa"
    swapped = "alpha kappa gamma delta [MASK] [MASK] epsilon zeta eta theta iota beta"
    a = ModelInput(text=base, mask_positions=(4, 5))
    b = ModelInput(text=swapped, mask_positions=(4, 5))
    assert predict_exact(model, a) == predict_exact(model, b)
    assert predict_range(model, a) is predict_range(model, b)
    ca, cb = (model_mod._compile(model, [mi]) for mi in (a, b))
    assert ca.rows.tobytes() == cb.rows.tobytes()
    assert ca.weights.tobytes() == cb.weights.tobytes()


def _random_batch(rng, model, n, loss):
    texts = [
        "A voyage lasting [MASK] [MASK] began quietly.",
        "The festival took [MASK] [MASK] to finish.",
        "Maria spent [MASK] [MASK] on the briefing.",
    ]
    batch = []
    for i in range(n):
        text = texts[int(rng.integers(len(texts)))]
        positions = tuple(j for j, t in enumerate(text.split()) if "[MASK]" in t)
        if loss == "mse":
            label = float(rng.uniform(0.0, 6.0))
        else:
            label = model.inventory[int(rng.integers(len(model.inventory)))]
        batch.append((ModelInput(text=text, mask_positions=positions), label))
    return batch


def _numeric_grad(arr, f, h=1e-4):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def _max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


@pytest.mark.parametrize("loss,param", [("mse", "w_e"), ("cross_entropy", "w_r"),
                                        ("mse", "embeddings"), ("cross_entropy", "embeddings")])
def test_gradients_match_finite_differences(loss, param):
    rng = np.random.default_rng(11)
    model = DualHeadModel.create(dim=6, seed=1, buckets=24, radius=3)
    model.encoder.embeddings[:] = rng.uniform(-0.5, 0.5, model.encoder.embeddings.shape)
    model.w_e[:] = rng.uniform(-0.5, 0.5, model.w_e.shape)
    model.w_r[:] = rng.uniform(-0.5, 0.5, model.w_r.shape)
    batch = _random_batch(rng, model, 4, loss)
    _, grads = loss_and_grads(model, batch, loss)
    target = model.encoder.embeddings if param == "embeddings" else getattr(model, param)
    numeric = _numeric_grad(target, lambda: loss_and_grads(model, batch, loss)[0])
    assert _max_rel_err(grads[param], numeric) < 1e-4


def test_train_interpolates_single_example_mse():
    model = DualHeadModel.create(dim=8, seed=5, buckets=64, radius=3)
    cfg = TrainConfig(learning_rate=0.05, batch_size=1, epochs=200, seed=1, loss="mse")
    model, curve = train(model, [(SAMPLE, 8.19)], cfg)
    assert len(curve) == 200
    assert curve[-1] < 1e-3


def test_train_single_example_cross_entropy():
    model = DualHeadModel.create(dim=8, seed=5, buckets=64, radius=3)
    cfg = TrainConfig(learning_rate=0.05, batch_size=1, epochs=200, seed=1, loss="cross_entropy")
    model, curve = train(model, [(SAMPLE, TemporalUnit.HOUR)], cfg)
    assert curve[-1] < 0.05


def test_zero_learning_rate_leaves_parameters_unchanged():
    model = DualHeadModel.create(dim=8, seed=7, buckets=64, radius=3)
    before = (model.w_e.copy(), model.w_r.copy(), model.encoder.embeddings.copy())
    cfg = TrainConfig(learning_rate=0.0, batch_size=2, epochs=3, seed=0, loss="mse")
    model, _ = train(model, [(SAMPLE, 2.0)], cfg)
    assert np.array_equal(model.w_e, before[0])
    assert np.array_equal(model.w_r, before[1])
    assert np.array_equal(model.encoder.embeddings, before[2])


def test_train_empty_data_is_noop(caplog):
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    before = model.w_e.copy()
    with caplog.at_level("WARNING"):
        model, curve = train(model, [], TrainConfig())
    assert curve == []
    assert np.array_equal(model.w_e, before)
    assert any("no data" in r.message for r in caplog.records)


def test_label_loss_mismatch_is_config_error():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    with pytest.raises(ConfigError):
        train(model, [(SAMPLE, TemporalUnit.HOUR)], TrainConfig(loss="mse"))
    with pytest.raises(ConfigError):
        train(model, [(SAMPLE, 3.0)], TrainConfig(loss="cross_entropy"))
    seven = DualHeadModel.create(dim=4, inventory=UNITS_7, seed=0, buckets=16, radius=2)
    with pytest.raises(ConfigError):
        train(seven, [(SAMPLE, TemporalUnit.DECADE)], TrainConfig(loss="cross_entropy"))


@pytest.mark.parametrize("field,value", [
    ("batch_size", 2.5), ("batch_size", True), ("epochs", 1.5), ("seed", 1.5),
    ("learning_rate", "0.1"), ("learning_rate", 10**400)],
    ids=["batch_size-2.5", "batch_size-True", "epochs-1.5", "seed-1.5", "learning_rate-str",
         "learning_rate-10**400"])
@pytest.mark.parametrize("make", [TrainConfig], ids=["bare"])
def test_train_config_of_the_wrong_type_is_config_error_naming_it(make, field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        make(**{field: value})


def test_train_config_takes_an_int_learning_rate():
    cfg = TrainConfig(learning_rate=0, epochs=3)
    model, curve = train(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2),
                         [(SAMPLE, 2.0)], cfg)
    assert len(curve) == 3


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(loss="hinge")
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    for rate in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=rate)
    assert TrainConfig().learning_rate == 5e-5
    assert TrainConfig().batch_size == 16


def test_training_is_bit_reproducible():
    data = [(SAMPLE, 3.0), (ModelInput(text="It took [MASK] [MASK] today.", mask_positions=(2, 3)), 5.0)]
    cfg = TrainConfig(learning_rate=0.01, batch_size=1, epochs=5, seed=42, loss="mse")
    m1, c1 = train(DualHeadModel.create(dim=8, seed=9, buckets=32, radius=3), list(data), cfg)
    m2, c2 = train(DualHeadModel.create(dim=8, seed=9, buckets=32, radius=3), list(data), cfg)
    assert c1 == c2
    assert np.array_equal(m1.w_e, m2.w_e)
    assert np.array_equal(m1.encoder.embeddings, m2.encoder.embeddings)


def test_save_load_roundtrip_predicts_identically():
    model = DualHeadModel.create(dim=8, seed=3, buckets=64, radius=3)
    train(model, [(SAMPLE, 4.0)], TrainConfig(learning_rate=0.01, epochs=5, batch_size=1, seed=0))
    restored = load(save(model))
    assert restored.inventory == model.inventory
    assert np.array_equal(restored.w_e, model.w_e)
    assert np.array_equal(restored.w_r, model.w_r)
    assert np.array_equal(restored.encoder.embeddings, model.encoder.embeddings)
    assert predict_exact(restored, SAMPLE) == predict_exact(model, SAMPLE)
    assert save(restored) == save(model)


def test_save_copies_the_parameters_once():
    model = DualHeadModel.create(dim=32, buckets=2**15)
    params = sum(a.nbytes for a in (model.encoder.embeddings, model.w_e, model.w_r))
    tracemalloc.start()
    try:
        blob = save(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params < len(blob) and peak <= 1.25 * params


@pytest.mark.parametrize("layout", ["big-endian", "strided"])
def test_save_writes_any_array_layout_as_its_little_endian_c_order_copy(layout):
    model = DualHeadModel.create(dim=6, seed=2, buckets=40, radius=2)

    def relaid(a):
        if layout == "big-endian":
            return a.astype(">f8")
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]

    table = np.asfortranarray(model.encoder.embeddings)
    odd = DualHeadModel(BaselineEncoder(table, model.encoder.radius), relaid(model.w_e),
                        relaid(model.w_r), model.inventory, model.seed)
    assert not odd.encoder.embeddings.flags.c_contiguous
    assert all(a.dtype.byteorder == ">" or not a.flags.c_contiguous for a in (odd.w_e, odd.w_r))
    blob = save(odd)
    assert blob == save(model)
    restored = load(blob)
    for name in ("w_e", "w_r"):
        assert np.array_equal(getattr(restored, name), getattr(model, name))
    assert np.array_equal(restored.encoder.embeddings, model.encoder.embeddings)
    assert save(restored) == blob


def test_load_rejects_truncation_and_garbage():
    blob = save(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2))
    with pytest.raises(CheckpointError):
        load(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load(blob + b"trailing junk")


def _with_header(blob, edit):
    """`blob` with its JSON header passed through `edit`."""
    header_len = int.from_bytes(blob[12:16], "big")
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:12] + len(raw).to_bytes(4, "big") + raw + blob[16 + header_len:]


def test_load_rejects_arrays_that_disagree_with_the_header():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)

    def short_range_head(header):
        header["arrays"][2]["shape"] = [3, 4]

    def long_exact_head(header):
        header["arrays"][1]["shape"] = [7]

    def rename(header):
        header["arrays"][1]["name"] = "bias"

    def swap(header):
        header["arrays"][1:] = header["arrays"][:0:-1]

    for edit in (short_range_head, long_exact_head, rename, swap):
        with pytest.raises(CheckpointError, match="arrays"):
            load(_with_header(save(model), edit))


def test_load_rejects_header_scalars_that_are_not_integers():
    blob = save(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2))
    for key, value in [("radius", 2.5), ("dim", 4.0), ("buckets", True), ("seed", "0"),
                       ("radius", None), ("seed", False)]:
        with pytest.raises(CheckpointError, match=key):
            load(_with_header(blob, lambda header: header.update({key: value})))


def test_load_rejects_non_finite_values():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    for name, index in [("embeddings", (15, 3)), ("w_e", (0,)), ("w_r", (7, 1))]:
        for value in (math.nan, math.inf, -math.inf):
            arrays = {"embeddings": model.encoder.embeddings.copy(), "w_e": model.w_e.copy(),
                      "w_r": model.w_r.copy()}
            arrays[name][index] = value
            broken = replace(model, encoder=BaselineEncoder(arrays["embeddings"], 2),
                             w_e=arrays["w_e"], w_r=arrays["w_r"])
            with pytest.raises(CheckpointError, match=f"array {name} holds NaN or infinite"):
                load(save(broken))


def test_load_rejects_header_values_of_the_wrong_type():
    blob = save(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2))
    edits = [("arrays", lambda header: header["arrays"][1].update(shape=[4.0])),
             ("arrays", lambda header: header["arrays"][0].update(shape=[16, True])),
             ("arrays", lambda header: header["arrays"][2].update(dtype="<f8")),
             ("inventory", lambda header: header.update(inventory=["second", 5])),
             ("inventory", lambda header: header.update(inventory=["hour"] * 8)),
             ("inventory", lambda header: header.update(inventory=[u.word for u in reversed(UNITS_8)])),
             ("dtype", lambda header: header.update(dtype=">f8")),
             ("dtype", lambda header: header.update(dtype="int32")),
             ("dtype", lambda header: header.pop("dtype")),
             ("version", lambda header: header.update(version=7)),
             ("version", lambda header: header.pop("version")),
             ("trained_heads", lambda header: header.update(trained_heads=["exact"]))]
    for key, edit in edits:
        with pytest.raises(CheckpointError, match=key):
            load(_with_header(blob, edit))
    header_len = int.from_bytes(blob[12:16], "big")
    deep = b"[" * 100_000
    with pytest.raises(CheckpointError, match="header"):
        load(blob[:12] + len(deep).to_bytes(4, "big") + deep + blob[16 + header_len:])


_FUZZ_BLOB = save(DualHeadModel.create(dim=3, seed=0, buckets=8, radius=1))


@settings(max_examples=300, deadline=None)
@given(blob=damaged(_FUZZ_BLOB))
def test_damaged_checkpoint_raises_only_checkpoint_error(blob):
    try:
        model = load(blob)
    except CheckpointError:
        return
    for array in (model.encoder.embeddings, model.w_e, model.w_r):
        assert np.isfinite(array).all()
    assert save(model) == blob


def test_load_names_the_keys_that_differ_and_accepts_no_other_spelling():
    blob = save(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2))

    def two_keys(header):
        header.update(dtype=">f8", trained_heads=None)
        del header["version"]

    with pytest.raises(CheckpointError, match="in dtype, trained_heads, version$"):
        load(_with_header(blob, two_keys))
    header_len = int.from_bytes(blob[12:16], "big")
    spaced = json.dumps(json.loads(blob[16:16 + header_len]), sort_keys=True, indent=1).encode()
    with pytest.raises(CheckpointError, match="in its spelling"):
        load(blob[:12] + len(spaced).to_bytes(4, "big") + spaced + blob[16 + header_len:])


def test_model_refuses_fields_that_break_its_rules():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    with pytest.raises(ConfigError, match="inventory"):
        DualHeadModel.create(dim=4, inventory=(TemporalUnit.HOUR, TemporalUnit.DAY), seed=0,
                             buckets=16, radius=2)
    with pytest.raises(ConfigError, match="inventory"):
        DualHeadModel.create(dim=4, inventory=(), seed=0, buckets=16, radius=2)
    with pytest.raises(ConfigError, match="w_r"):
        replace(model, w_r=model.w_r[:3])
    with pytest.raises(ConfigError, match="w_e"):
        replace(model, w_e=np.zeros(7))
    for seed in (-1, 2.0, True, "0"):
        with pytest.raises(ConfigError, match="seed"):
            replace(model, seed=seed)
    for radius in (-1, 2.0, None):
        with pytest.raises(ConfigError, match="radius"):
            BaselineEncoder(model.encoder.embeddings, radius)


def test_create_rejects_empty_or_negative_sizes():
    for dim, buckets in [(-1, 16), (0, 16), (4, 0), (4, -3)]:
        with pytest.raises(ConfigError, match="dim and buckets"):
            DualHeadModel.create(dim=dim, seed=0, buckets=buckets, radius=2)


def test_load_rejects_unsupported_version():
    blob = bytearray(save(DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)))
    blob[8:12] = (99).to_bytes(4, "big")
    with pytest.raises(CheckpointError, match="version"):
        load(bytes(blob))


def test_with_inventory_slices_range_head():
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    seven = with_inventory(model, UNITS_7)
    assert seven.inventory == UNITS_7
    assert np.array_equal(seven.w_r, model.w_r[:7])
    with pytest.raises(ConfigError):
        with_inventory(seven, UNITS_8)


def test_evaluate_loss_matches_definitions():
    model = _one_row_model((1.0, 0.5), w_e=(1.0, 1.0), w_r=np.zeros((8, 2)))
    # prediction is 3.0; label 1.0 -> squared error 4.0
    assert evaluate_loss(model, [(SAMPLE, 1.0)], "mse") == pytest.approx(4.0)
    # zero logits -> uniform probabilities -> loss ln(8)
    assert evaluate_loss(model, [(SAMPLE, TemporalUnit.DAY)], "cross_entropy") == pytest.approx(math.log(8))


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_loss_of_no_data_is_a_config_error(loss):
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    for call in (loss_and_grads, evaluate_loss):
        with pytest.raises(ConfigError, match="^cannot evaluate loss on empty data$"):
            call(model, [], loss)


def test_train_rejects_no_or_out_of_range_mask_positions():
    good = (ModelInput(text="It took [MASK] [MASK] today.", mask_positions=(2, 3)), 3.0)
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    before = model.encoder.embeddings.copy()
    for positions in [(), (-1,), (5,), (9,), (20,), (2, 20)]:
        bad = (ModelInput(text="It took [MASK] [MASK] today.", mask_positions=positions), 3.0)
        with pytest.raises(InvalidInputError, match="item 1"):
            train(model, [good, bad], TrainConfig(learning_rate=0.1, epochs=1, seed=0))
    assert np.array_equal(model.encoder.embeddings, before)


@pytest.mark.parametrize("label", [1e4, 1e200])
def test_train_stops_on_a_loss_past_the_limit_or_not_finite(label):
    # squared errors of about 1e8 and of inf at the first step
    model = DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)
    data = [(ModelInput(text="It took [MASK] [MASK] today.", mask_positions=(2, 3)), label)]
    with pytest.raises(ValueError, match=r"step 1 \(epoch 1\)") as info:
        train(model, data, TrainConfig(learning_rate=0.01, epochs=1, seed=0, loss="mse"))
    assert not isinstance(info.value, ConfigError)


@pytest.mark.parametrize("epochs", [1, 5])
def test_train_hashes_each_window_once(monkeypatch, epochs):
    calls = []
    original = BaselineEncoder.window_buckets

    def counting(self, tokens, position):
        calls.append(position)
        return original(self, tokens, position)

    monkeypatch.setattr(BaselineEncoder, "window_buckets", counting)
    rng = np.random.default_rng(4)
    model = DualHeadModel.create(dim=4, seed=0, buckets=64, radius=2)
    data = _random_batch(rng, model, 21, "mse")
    train(model, data, TrainConfig(learning_rate=0.01, batch_size=4, epochs=epochs, seed=0))
    assert len(calls) == sum(len(mi.mask_positions) for mi, _ in data)


def test_train_lets_go_of_an_epoch_before_it_builds_the_next(monkeypatch):
    buffers = []
    epoch = model_mod._epoch

    def spy(*args):
        assert all(ref() is None for ref in buffers), "an earlier epoch's matrices are alive"
        batches = epoch(*args)
        buffers.append(weakref.ref(batches[0].blocks[0][0].base))
        return batches

    monkeypatch.setattr(model_mod, "_epoch", spy)
    rng = np.random.default_rng(5)
    model = DualHeadModel.create(dim=4, seed=0, buckets=64, radius=2)
    data = _random_batch(rng, model, 21, "mse")
    train(model, data, TrainConfig(learning_rate=0.01, batch_size=4, epochs=3, seed=0))
    assert len(buffers) == 3


# --- reference implementations: a loop over items and a row-sparse Adam step -


def _reference_loss_and_grads(model, batch, loss):
    encoder = model.encoder
    d_emb = np.zeros_like(encoder.embeddings)
    d_we = np.zeros_like(model.w_e)
    d_wr = np.zeros_like(model.w_r)
    total = 0.0
    n = len(batch)
    for model_input, label in batch:
        tokens = model_input.text.split()
        windows = [encoder.window_buckets(tokens, p) for p in model_input.mask_positions]
        s = np.sum([encoder.embeddings[rows].mean(axis=0) for rows in windows], axis=0)
        if loss == "mse":
            err = float(model.w_e @ s) - float(label)
            total += err * err
            dv = 2.0 * err / n
            d_we += dv * s
            ds = dv * model.w_e
        else:
            z = model.w_r @ s
            probs = np.exp(z - np.max(z))
            probs = probs / probs.sum()
            target = model.inventory.index(label)
            total += -math.log(max(probs[target], 1e-300))
            dz = probs.copy()
            dz[target] -= 1.0
            dz /= n
            d_wr += np.outer(dz, s)
            ds = model.w_r.T @ dz
        for rows in windows:
            np.add.at(d_emb, rows, ds / len(rows))
    head = {"w_e": d_we} if loss == "mse" else {"w_r": d_wr}
    return total / n, {"embeddings": d_emb, **head}


class _LazyAdam:
    """Row-sparse Adam as a loop over rows: a step updates the moments and
    the value of each row with a gradient, with the bias corrections of the
    global step count, and leaves every other row as it is."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = 0

    def step(self, params, grads, rows, lr):
        """`rows` are the embedding rows with a gradient; every other
        parameter has one on all its values."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for key, grad in grads.items():
            m, v, param = self.m[key], self.v[key], params[key]
            for r in (rows if key == "embeddings" else [...]):
                m[r] = m[r] * self.beta1 + (1.0 - self.beta1) * grad[r]
                v[r] = v[r] * self.beta2 + (1.0 - self.beta2) * grad[r] * grad[r]
                param[r] = param[r] - lr * (m[r] / b1t) / (np.sqrt(v[r] / b2t) + self.eps)


def _batch_rows(model, batch):
    """The table rows of the window tokens of `batch`'s items, ascending."""
    encoder = model.encoder
    return sorted({r for model_input, _ in batch for p in model_input.mask_positions
                   for r in encoder.window_buckets(model_input.text.split(), p)})


def _reference_train(model, data, cfg, stop=None):
    """Row-sparse Adam training over (input, label) pairs, stopped after
    `stop` steps when given."""
    head = "w_e" if cfg.loss == "mse" else "w_r"
    params = {"embeddings": model.encoder.embeddings, head: getattr(model, head)}
    optimizer = _LazyAdam(params)
    steps = math.ceil(len(data) / cfg.batch_size)
    warmup = math.ceil(model_mod._WARMUP * (steps * cfg.epochs))
    rng = np.random.default_rng(cfg.seed)
    curve, step = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            if step == stop:
                return curve
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            loss, grads = loss_and_grads(model, batch, cfg.loss)
            step += 1
            optimizer.step(params, grads, _batch_rows(model, batch),
                           cfg.learning_rate * min(1.0, step / warmup))
            curve.append(loss)
    return curve


def _vocabulary_batch(rng, model, n, vocabulary, loss, max_words=8):
    batch = []
    for _ in range(n):
        words = [f"w{int(rng.integers(vocabulary))}" for _ in range(int(rng.integers(1, max_words + 1)))]
        positions = tuple(sorted(rng.choice(len(words), int(rng.integers(1, min(3, len(words)) + 1)),
                                            replace=False).tolist()))
        label = (float(rng.uniform(0.0, 6.0)) if loss == "mse"
                 else model.inventory[int(rng.integers(len(model.inventory)))])
        batch.append((ModelInput(text=" ".join(words), mask_positions=positions), label))
    return batch


def _assert_within_rounding(value, ref):
    """`value` is within 1e-12 of the largest magnitude in `ref`."""
    ref = np.asarray(ref)
    assert np.abs(np.asarray(value) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [1, 5, 6, 32])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_loss_and_grads_match_item_loop_within_rounding(dim, loss):
    # The batch sums in another order than the loop, so the two agree to
    # rounding only: the loss to a relative 1e-12, and each gradient to
    # 1e-12 of its largest entry.
    rng = np.random.default_rng(dim)
    model = DualHeadModel.create(dim=dim, seed=2, buckets=64, radius=4)
    for size in (1, 7, 16):
        batch = _vocabulary_batch(rng, model, size, 200, loss)
        # Under a zero range head, one item's reference w_r gradient row
        # for a non-target unit is its sum s divided by 8, which is exact.
        zero_head = replace(model, w_r=np.zeros_like(model.w_r))
        for model_input, _ in batch:
            _, ref_grads = _reference_loss_and_grads(
                zero_head, [(model_input, model.inventory[0])], "cross_entropy")
            s = ref_grads["w_r"][1] * len(model.inventory)
            assert predict_exact(model, model_input) == pytest.approx(float(model.w_e @ s),
                                                                      rel=1e-12, abs=1e-15)
            assert predict_range(model, model_input) is model.inventory[np.argmax(model.w_r @ s)]
    # Many batch sizes and long windows.
    for size in [1, 7, 16] + rng.integers(1, 41, size=50).tolist():
        batch = _vocabulary_batch(rng, model, size, 200, loss, max_words=12)
        value, grads = loss_and_grads(model, batch, loss)
        ref_value, ref_grads = _reference_loss_and_grads(model, batch, loss)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            _assert_within_rounding(grads[key], ref_grads[key])


def _one_batch(entries, buckets, h):
    """All of `entries`' items as one compiled batch, as `train` passes it,
    with the head's `h` rows in front of its rows."""
    n = len(entries.counts)
    return model_mod._epoch(entries, np.arange(n), n, buckets, h)[0]


@pytest.mark.parametrize("dim", [1, 5, 32])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_compact_embedding_gradient_scatters_to_the_dense_one(dim, loss):
    rng = np.random.default_rng(20 + dim)
    model = DualHeadModel.create(dim=dim, seed=4, buckets=64, radius=4)
    head = "w_e" if loss == "mse" else "w_r"
    h = 1 if loss == "mse" else len(model.inventory)
    for _ in range(20):
        batch = _vocabulary_batch(rng, model, int(rng.integers(1, 41)), 100, loss, max_words=12)
        entries = model_mod._compile(model, [mi for mi, _ in batch],
                                     model_mod._labels(model, batch, loss))
        value, grads = loss_and_grads(model, _one_batch(entries, 64, h), loss)
        rows, values = grads["embeddings"]
        assert rows.tolist() == [*range(h), *(h + r for r in sorted(set(entries.rows.tolist())))]
        assert values.shape == (len(rows), dim)
        assert values[:h].tobytes() == grads[head].tobytes()
        scattered = np.zeros_like(model.encoder.embeddings)
        scattered[rows[h:] - h] = values[h:]
        dense_value, dense = loss_and_grads(model, batch, loss)
        assert value == dense_value
        assert scattered.tobytes() == dense["embeddings"].tobytes()
        assert grads[head].tobytes() == dense[head].tobytes()


@pytest.mark.parametrize("dim", [1, 6, 32])
def test_predict_many_bit_identical_to_one_item_predict(dim):
    rng = np.random.default_rng(10 + dim)
    model = DualHeadModel.create(dim=dim, seed=5, buckets=64, radius=4)
    chunk = model_mod._PREDICT_CHUNK
    inputs = [mi for mi, _ in _vocabulary_batch(rng, model, 2 * chunk + 9, 300, "mse")]
    assert {len(mi.mask_positions) for mi in inputs} == {1, 2, 3}
    # One-item calls go through an encoder of their own, whose token memo
    # the batch calls have not filled.
    single = replace(model, encoder=BaselineEncoder(model.encoder.embeddings, model.encoder.radius))
    exact = predict_many(model, inputs, "exact")
    ranged = predict_many(model, inputs, "range")
    assert len(exact) == len(ranged) == len(inputs)
    for mi, value, unit in zip(inputs, exact, ranged):
        assert value == predict_exact(single, mi)
        assert unit is predict_range(single, mi)
        assert unit is model.inventory[np.argmax(model.w_r @ _item_sum(model, mi))]
    assert predict_many(model, [], "exact") == []

    bad = list(inputs)
    bad[2 * chunk + 1] = replace(bad[2 * chunk + 1], mask_positions=(50,))
    for head in ("exact", "range"):
        with pytest.raises(InvalidInputError, match=rf"^item {2 * chunk + 1}: mask position 50"):
            predict_many(model, bad, head)
    with pytest.raises(ConfigError, match="head"):
        predict_many(model, inputs, "both")


@pytest.mark.parametrize("head", ["exact", "range"])
def test_predict_many_names_the_item_whose_output_is_not_finite(head):
    model = DualHeadModel.create(dim=4, seed=0, buckets=4096, radius=1)
    normal = ModelInput(text="It took [MASK] today.", mask_positions=(2,))
    huge = ModelInput(text="It took [MASK] zzz.", mask_positions=(2,))
    assert model.encoder.bucket("zzz.") not in {model.encoder.bucket(t) for t in normal.text.split()}
    model.encoder.embeddings[model.encoder.bucket("zzz.")] = 1e308
    model.w_e[:] = model.w_r[:] = 10.0
    first_bad = model_mod._PREDICT_CHUNK + 3
    inputs = [normal] * first_bad + [huge, normal, huge]
    with pytest.raises(ValueError, match=rf"^item {first_bad}: the {head} head's output is not finite"):
        predict_many(model, inputs, head)
    assert len(predict_many(model, inputs[:first_bad], head)) == first_bad


@pytest.mark.parametrize("vocabulary,buckets,under_half,dim,radius,max_words", [
    pytest.param(6, 256, True, 5, 2, 8, id="6-256-True"),
    pytest.param(400, 64, False, 5, 2, 8, id="400-64-False"),
    pytest.param(6, 256, True, 1, 5, 14, id="6-256-True-dim1-radius5")])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_train_bit_identical_to_dense_reference(vocabulary, buckets, under_half, dim, radius,
                                                max_words, loss):
    # A few words leave most of the 256 rows untouched; many words touch
    # more than half of 64. The last case has windows of 8 or more tokens.
    rng = np.random.default_rng(buckets)
    model = DualHeadModel.create(dim=dim, seed=3, buckets=buckets, radius=radius)
    reference = DualHeadModel.create(dim=dim, seed=3, buckets=buckets, radius=radius)
    initial = model.encoder.embeddings.copy()
    data = _vocabulary_batch(rng, model, 40, vocabulary, loss, max_words)
    longest = max(min(p + radius + 1, len(tokens)) - max(0, p - radius)
                  for mi, _ in data for tokens in [tokenize(mi.text)] for p in mi.mask_positions)
    assert longest >= 8 if max_words > 8 else longest <= 5
    cfg = TrainConfig(learning_rate=0.05, batch_size=6, epochs=3, seed=1, loss=loss)
    _, curve = train(model, data, cfg)
    assert curve == _reference_train(reference, data, cfg)
    assert save(model) == save(reference)
    changed = np.any(model.encoder.embeddings != initial, axis=1).mean()
    assert (changed < 0.5) == under_half


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_long_training_equals_the_dense_reference_past_the_unit_bias_correction(loss):
    # From step 356 on, 1 - beta1^t rounds to 1.0; 410 steps reach well
    # past it.
    rng = np.random.default_rng(7)
    model = DualHeadModel.create(dim=4, seed=5, buckets=64, radius=2)
    reference = DualHeadModel.create(dim=4, seed=5, buckets=64, radius=2)
    data = _vocabulary_batch(rng, model, 40, 60, loss)
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, epochs=41, seed=3, loss=loss)
    assert 1.0 - model_mod._Adam.beta1 ** 356 == 1.0 != 1.0 - model_mod._Adam.beta1 ** 355
    _, curve = train(model, data, cfg)
    assert len(curve) == 410
    assert curve == _reference_train(reference, data, cfg)
    assert save(model) == save(reference)


@pytest.mark.parametrize("batch_size", [1, 16, 17, 33, 50])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_train_through_block_matrices_equals_the_dense_reference(batch_size, loss):
    # One item per batch, one whole block, a block and one item, two blocks
    # and one item, and one batch of all 50 items in four blocks. From 17
    # items on, a row in two blocks of a batch gets both blocks' gradients.
    rng = np.random.default_rng(30 + batch_size)
    model = DualHeadModel.create(dim=4, seed=2, buckets=64, radius=3)
    reference = DualHeadModel.create(dim=4, seed=2, buckets=64, radius=3)
    data = _vocabulary_batch(rng, model, 50, 40, loss, max_words=12)
    cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, epochs=2, seed=4, loss=loss)
    entries = model_mod._compile(model, [mi for mi, _ in data], [0.0] * 50)
    batches = model_mod._epoch(entries, np.arange(50), batch_size, 64, 1)
    heights = [len(matrix) for batch in batches for matrix, _, _ in batch.blocks]
    assert max(heights) == min(batch_size, model_mod._BLOCK) and sum(heights) == 50
    shared = [sum(len(cols) for _, cols, _ in batch.blocks) > len(batch.rows) - 1
              for batch in batches]
    assert any(shared) == (batch_size > model_mod._BLOCK)
    _, curve = train(model, data, cfg)
    assert curve == _reference_train(reference, data, cfg)
    assert save(model) == save(reference)


# Items as the table rows of their mask windows' tokens, as `_entries`
# takes them: the rows of every window token, the tokens per window, the
# windows per item and the items' labels.
_Windows = namedtuple("_Windows", "rows lengths counts labels")


def _random_windows(rng, n, buckets, loss):
    """`n` items of 1 to 3 windows of 1 to 11 tokens each, on rows of a
    `buckets`-row table, so rows repeat in windows and items."""
    counts = rng.integers(1, 4, size=n)
    lengths = rng.integers(1, 12, size=int(counts.sum()))
    labels = rng.uniform(0.0, 6.0, size=n) if loss == "mse" else rng.integers(0, 8, size=n)
    return _Windows(rng.integers(0, buckets, size=int(lengths.sum())), lengths, counts, labels)


@pytest.mark.parametrize("dim", [1, 5, 32])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_loss_and_grads_do_not_change_when_the_rows_are_renumbered(dim, loss):
    # `train` renumbers the table's rows with `np.unique`, which keeps their
    # order. A block's columns are its rows ascending, so under a map of the
    # 30 rows into a larger table that keeps their order the products, and
    # their bits, stay the same; this is what keeps `train` equal to the
    # reference, which trains on the whole table.
    rng = np.random.default_rng(40 + dim)
    model = DualHeadModel.create(dim=dim, seed=6, buckets=30, radius=5)
    head = "w_e" if loss == "mse" else "w_r"
    h = 1 if loss == "mse" else len(model.inventory)
    for n in [1, 16, 17, 40] + rng.integers(1, 50, size=8).tolist():
        batch = _random_windows(rng, n, 30, loss)
        number = np.sort(rng.choice(100, 30, replace=False))
        table = rng.uniform(-0.05, 0.05, size=(100, dim))
        table[number] = model.encoder.embeddings
        renumbered = replace(model, encoder=BaselineEncoder(table, model.encoder.radius))
        entries = model_mod._entries(*batch, 30)
        value, grads = loss_and_grads(model, _one_batch(entries, 30, h), loss)
        new_value, new_grads = loss_and_grads(
            renumbered, _one_batch(replace(entries, rows=number[entries.rows]), 100, h), loss)
        assert new_value == value
        assert new_grads[head].tobytes() == grads[head].tobytes()
        rows, values = grads["embeddings"]
        new_rows, new_values = new_grads["embeddings"]
        assert new_rows.tolist() == [*range(h), *(h + number[rows[h:] - h]).tolist()]
        assert new_values.tobytes() == values.tobytes()


@st.composite
def _epoch_runs(draw):
    """Items of 1 to 3 windows of 1 to 11 tokens on a table of at most 40
    rows, so that rows repeat in windows, items and blocks; an order of
    them, a batch size and a loss."""
    buckets = draw(st.integers(1, 40))
    window = st.lists(st.integers(0, buckets - 1), min_size=1, max_size=11)
    items = draw(st.lists(st.lists(window, min_size=1, max_size=3), min_size=1, max_size=60))
    windows = [w for item in items for w in item]
    loss = draw(st.sampled_from(["mse", "cross_entropy"]))
    labels = (draw(arrays(np.float64, len(items), elements=st.floats(0.0, 6.0))) if loss == "mse"
              else draw(arrays(np.intp, len(items), elements=st.integers(0, 7))))
    data = _Windows(np.array([r for w in windows for r in w], dtype=np.intp),
                    np.array([len(w) for w in windows]), np.array([len(i) for i in items]), labels)
    order = np.array(draw(st.permutations(range(len(items)))), dtype=np.intp)
    return data, order, buckets, draw(st.sampled_from([1, 16, 17, 33, 50])), loss


@settings(max_examples=150, deadline=None)
@given(run=_epoch_runs())
@example(run=(_Windows(np.array([0, 0, 0, 1, 2]), np.array([1, 1, 3]), np.array([3]),
                       np.array([1.0])), np.array([0]), 3, 1, "mse"))
def test_epoch_from_entries_equals_the_token_level_build(run):
    # Block for block, the same matrix, cols and slots bytes, and the same
    # step rows, as the build from every window token (tests/oracles.py).
    # A block's cols ascend, so a batch of one block takes the step rows
    # after the head's in order.
    # The example's item has row 0 in windows of 1, 1 and 3 tokens: its
    # weights 1 + 1 + 1/3, added in the reverse order, differ in the last bit.
    data, order, buckets, size, loss = run
    h = 1 if loss == "mse" else len(UNITS_8)
    batches = model_mod._epoch(model_mod._entries(*data, buckets), order, size, buckets, h)
    want = oracles.token_epoch(data.rows, data.lengths, data.counts, data.labels, order, size,
                               buckets, h, model_mod._BLOCK)
    assert len(batches) == len(want)
    for batch, (labels, rows, blocks) in zip(batches, want):
        assert batch.labels.tobytes() == labels.tobytes()
        assert batch.rows.dtype == rows.dtype and batch.rows.tobytes() == rows.tobytes()
        assert len(batch.blocks) == len(blocks)
        for got, expected in zip(batch.blocks, blocks):
            for a, b in zip(got, expected):
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
            assert (np.diff(got[1]) > 0).all()
        if len(batch.blocks) == 1:
            _, cols, slots = batch.blocks[0]
            assert slots.tolist() == list(range(h, h + len(cols)))


def test_row_restricted_adam_step_matches_dense_reference():
    # Few words first, so fewer than half the rows have had a gradient,
    # then many, so most of the table has. As in `train`, the head is the
    # first row of one buffer, and the table rows that the batches use
    # follow it, ascending; each step's gradient is on rows of the buffer.
    rng = np.random.default_rng(8)
    model = DualHeadModel.create(dim=4, seed=6, buckets=48, radius=1)
    reference = DualHeadModel.create(dim=4, seed=6, buckets=48, radius=1)
    initial = model.encoder.embeddings.copy()
    batches = [_vocabulary_batch(rng, model, 5, vocabulary, "mse")
               for vocabulary in [4] * 6 + [300] * 6]
    compiled = [model_mod._compile(model, [mi for mi, _ in b], [label for _, label in b])
                for b in batches]
    seen = np.unique(np.concatenate([c.rows for c in compiled]))
    label = np.empty(48, dtype=np.intp)
    label[seen] = np.arange(len(seen))
    optimizer = model_mod._Adam(np.concatenate([model.w_e[None], initial[seen]]))
    buffer = optimizer.param
    work = replace(model, encoder=BaselineEncoder(buffer[1:], 1), w_e=buffer[0])
    params = {"embeddings": reference.encoder.embeddings, "w_e": reference.w_e}
    lazy = _LazyAdam(params)
    touched = np.zeros(48, dtype=bool)
    shares = []
    for batch, c in zip(batches, compiled):
        _, grads = loss_and_grads(work, _one_batch(replace(c, rows=label[c.rows]), len(seen), 1), "mse")
        _, ref_grads = loss_and_grads(reference, batch, "mse")
        rows, values = grads["embeddings"]
        assert rows[0] == 0 and seen[rows[1:] - 1].tolist() == _batch_rows(reference, batch)
        touched[seen[rows[1:] - 1]] = True
        optimizer.step(0.1, rows, values)
        lazy.step(params, ref_grads, seen[rows[1:] - 1], 0.1)
        assert np.array_equal(buffer[0], reference.w_e)
        assert np.array_equal(buffer[1:], reference.encoder.embeddings[seen])
        for moment, ref in ((optimizer.m, lazy.m), (optimizer.v, lazy.v)):
            assert np.array_equal(moment[0], ref["w_e"])
            assert np.array_equal(moment[1:], ref["embeddings"][seen])
        assert np.array_equal(reference.encoder.embeddings[~touched], initial[~touched])
        shares.append(touched.mean())
    assert min(shares) < 0.5 < max(shares)


_ADAM_ROWS = 10


@st.composite
def _adam_runs(draw):
    """A parameter shape and a sequence of (rows, values, lr) steps; each
    step's rows are distinct and in any order, and may be none or all."""
    shape = draw(st.sampled_from([(_ADAM_ROWS,), (_ADAM_ROWS, 3)]))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        chosen = draw(st.one_of(st.lists(st.integers(0, _ADAM_ROWS - 1), unique=True),
                                st.permutations(range(_ADAM_ROWS))))
        values = draw(arrays(np.float64, (len(chosen), *shape[1:]),
                             elements=st.floats(-1e3, 1e3, allow_subnormal=True)))
        steps.append((np.array(chosen, dtype=np.intp), values, draw(st.floats(1e-6, 1.0))))
    return shape, steps


@settings(max_examples=200, deadline=None)
@given(run=_adam_runs(), seed=st.integers(0, 3))
@example(run=((_ADAM_ROWS, 2), [  # a new row, no new row, then every row in reverse
    (np.array([7, 2]), np.ones((2, 2)), 0.1),
    (np.array([2]), -np.ones((1, 2)), 0.1),
    (np.arange(_ADAM_ROWS)[::-1].copy(), np.full((_ADAM_ROWS, 2), 0.5), 0.1)]), seed=0)
def test_packed_moment_adam_matches_dense_adam(run, seed):
    # Each step's rows, in any order, move as the row loop moves them.
    shape, steps = run
    param = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    reference = {"embeddings": param.copy()}
    optimizer, lazy = model_mod._Adam(param), _LazyAdam(reference)
    for rows, values, lr in steps:
        optimizer.step(lr, rows, values)
        grad = np.zeros(shape)
        grad[rows] = values
        lazy.step(reference, {"embeddings": grad}, rows.tolist(), lr)
        assert optimizer.param.tobytes() == reference["embeddings"].tobytes()
        assert optimizer.m.tobytes() == lazy.m["embeddings"].tobytes()
        assert optimizer.v.tobytes() == lazy.v["embeddings"].tobytes()


@settings(max_examples=200, deadline=None)
@given(run=_adam_runs(), seed=st.integers(0, 3))
@example(run=((_ADAM_ROWS, 2), [  # every row, then two of them
    (np.arange(_ADAM_ROWS), np.ones((_ADAM_ROWS, 2)), 0.1),
    (np.array([2, 5]), -np.ones((2, 2)), 0.1)]), seed=0)
def test_adam_step_leaves_every_row_without_a_gradient_as_it_was(run, seed):
    shape, steps = run
    optimizer = model_mod._Adam(np.random.default_rng(seed).uniform(-1.0, 1.0, shape))
    for rows, values, lr in steps:
        others = np.setdiff1d(np.arange(_ADAM_ROWS), rows)
        before = [a[others].tobytes() for a in (optimizer.param, optimizer.m, optimizer.v)]
        optimizer.step(lr, rows, values)
        assert [a[others].tobytes() for a in (optimizer.param, optimizer.m, optimizer.v)] == before


@st.composite
def _training_runs(draw):
    """A small model, data whose windows repeat words (the vocabulary may
    be one word) and share buckets (the table may have 8 rows), and a
    config whose batch size does not divide the number of items."""
    loss = draw(st.sampled_from(["mse", "cross_entropy"]))
    buckets, radius = draw(st.sampled_from([8, 32, 256])), draw(st.integers(0, 3))
    model = DualHeadModel.create(dim=draw(st.integers(1, 4)), seed=draw(st.integers(0, 3)),
                                 buckets=buckets, radius=radius)
    n = draw(st.integers(2, 30))
    batch_size = draw(st.integers(2, n).filter(lambda b: n % b))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = _vocabulary_batch(rng, model, n, draw(st.integers(1, 40)), loss)
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([0.01, 0.3])), batch_size=batch_size,
                      epochs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 9)), loss=loss)
    return model, data, cfg


@settings(max_examples=60, deadline=None)
@given(run=_training_runs())
def test_train_steps_a_prefix_of_first_gradient_rows_and_equals_the_reference(run):
    # Each step's rows are the head's, then the batch's, ascending, and no
    # other row of the buffer, or its moments, moves.
    model, data, cfg = run
    arrays_before = model.encoder.embeddings, model.w_e, model.w_r
    reference = replace(model, w_e=model.w_e.copy(), w_r=model.w_r.copy(), encoder=BaselineEncoder(
        model.encoder.embeddings.copy(), model.encoder.radius))
    original, steps = model_mod._Adam.step, []
    h = 1 if cfg.loss == "mse" else len(model.inventory)

    def step(optimizer, lr, rows, values):
        assert rows[:h].tolist() == list(range(h)) and np.all(np.diff(rows) > 0)
        others = np.setdiff1d(np.arange(len(optimizer.param)), rows)
        before = [a[others].tobytes() for a in (optimizer.param, optimizer.m, optimizer.v)]
        original(optimizer, lr, rows, values)
        steps.append([a[others].tobytes() for a in (optimizer.param, optimizer.m, optimizer.v)] == before)

    model_mod._Adam.step = step
    try:
        _, curve = train(model, data, cfg)
    finally:
        model_mod._Adam.step = original
    assert len(steps) == len(curve) and all(steps)
    assert all(a is b for a, b in zip((model.encoder.embeddings, model.w_e, model.w_r), arrays_before))
    assert curve == _reference_train(reference, data, cfg)
    assert save(model) == save(reference)


@pytest.mark.parametrize("rate,step", [(18.0, 12), (1e150, 2)])
def test_diverged_training_writes_back_the_steps_before_it(rate, step):
    # The loss passes the limit at step 12, in the second epoch, or is
    # infinite at step 2. The model keeps its arrays, in bucket order,
    # holding what the steps before that one made.
    rng = np.random.default_rng(11)
    model = DualHeadModel.create(dim=4, seed=1, buckets=64, radius=2)
    reference = DualHeadModel.create(dim=4, seed=1, buckets=64, radius=2)
    arrays_before = model.encoder.embeddings, model.w_e, model.w_r
    data = _vocabulary_batch(rng, model, 40, 30, "mse")
    cfg = TrainConfig(learning_rate=rate, batch_size=6, epochs=3, seed=3)
    with pytest.raises(ValueError, match=rf"training diverged at step {step} "):
        train(model, data, cfg)
    assert all(a is b for a, b in zip((model.encoder.embeddings, model.w_e, model.w_r), arrays_before))
    assert len(_reference_train(reference, data, cfg, stop=step - 1)) == step - 1
    assert save(model) == save(reference)


def test_train_starts_no_thread_on_two_cpus_and_a_large_table(monkeypatch):
    # Two usable CPUs, and more than 65,536 values in the rows that have a
    # gradient: training runs in the calling thread alone.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads, counts = threading.active_count(), []
    original = model_mod._Adam.step

    def step(optimizer, *args):
        original(optimizer, *args)
        counts.append(threading.active_count())

    monkeypatch.setattr(model_mod._Adam, "step", step)
    rng = np.random.default_rng(13)
    model = DualHeadModel.create(dim=64, seed=0, buckets=4096, radius=12)
    data = _vocabulary_batch(rng, model, 300, 100_000, "mse", max_words=12)
    rows = np.unique(model_mod._compile(model, [mi for mi, _ in data]).rows)
    assert rows.size * model.dim > 65_536
    _, curve = train(model, data, TrainConfig(learning_rate=0.05, seed=0))
    assert counts == [threads] * len(curve) and len(curve) == 19
    assert threading.active_count() == threads


def test_train_allocates_less_than_the_table_for_a_few_items():
    # The buffer and the moments hold only the rows that the items use, so
    # ten items on a 65,536-row table take less than one value per row.
    rng = np.random.default_rng(14)
    model = DualHeadModel.create(dim=1, seed=0, buckets=65_536, radius=2)
    data = _vocabulary_batch(rng, model, 10, 50, "mse")
    tracemalloc.start()
    try:
        train(model, data, TrainConfig(learning_rate=0.05, batch_size=4, epochs=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.encoder.embeddings.nbytes
