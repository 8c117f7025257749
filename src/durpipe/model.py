"""Dual-head duration predictor over hashed token-window embeddings.

Both heads read the same vector: the sum, over an input's mask
positions, of the mean embedding of the tokens in a window around each
one (BaselineEncoder hashes tokens into a fixed embedding table). The
exact head is a bias-free linear regression to a log-second value, the
range head a bias-free linear layer plus softmax over the unit
inventory. One forward pass computes that vector for prediction, loss
evaluation and training alike: `_compile` hashes the mask windows of its
inputs, `_item_sums` reduces their embeddings with two `np.add.reduceat`
calls, and both heads and the softmax run on the whole batch at once.
The heads are `np.einsum` products, which give each item's row the same
bits whatever rows surround it (a BLAS matrix product need not).

The encoder remembers the bucket of every raw token it has hashed, so
canonicalizing and hashing run once per distinct token per encoder.
`predict_many` predicts a whole input list in chunks of `_PREDICT_CHUNK`
items, which bounds the embedding rows gathered at a time.
`predict_exact` and `predict_range` are one-item calls into it.

Training is minibatch gradient descent with adaptive per-parameter
moments and a linear-warmup-then-constant schedule. All randomness flows
from the config seed, so runs are bit-reproducible.

`train` hashes its data once, into one flat `_Windows`. Each epoch
gathers its shuffled items from it once, and a batch is a set of slices
of that gather, distinct rows included. The first epoch's shuffle fixes
the step at which each table row first has a gradient; in that order,
the rows follow the head in one buffer, so the rows that have had a
gradient are always a prefix of it, and one optimizer steps that prefix
in place. Every later row has zero moments, so skipping it changes no
bit (unlike "lazy" Adam, which also skips the moment decay of rows
without a gradient). At the end the buffer goes back into the model's
own arrays, in bucket order. `DURPIPE_LOG=INFO` logs each epoch's steps,
mean loss and learning rate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .adapters import ModelInput
from .text import strip_clinging, tokenize
from .units import UNITS_8, TemporalUnit, UnitInventory

logger = logging.getLogger(__name__)

__all__ = [
    "BaselineEncoder",
    "DualHeadModel",
    "TrainConfig",
    "InvalidInputError",
    "ConfigError",
    "CheckpointError",
    "predict_exact",
    "predict_range",
    "predict_many",
    "train",
    "loss_and_grads",
    "evaluate_loss",
    "save",
    "load",
    "with_inventory",
]

CHECKPOINT_MAGIC = b"DURCKPT\n"
CHECKPOINT_VERSION = 1


class InvalidInputError(ValueError):
    """Raised for inputs that cannot be encoded (no mask positions, bad indices)."""


class ConfigError(ValueError):
    """Raised when training configuration and data disagree."""


class CheckpointError(ValueError):
    """Raised when checkpoint bytes cannot be loaded."""


class BaselineEncoder:
    """Hashed-bucket token embeddings averaged over a context window.

    Tokens are canonicalized (clinging punctuation stripped, lowercased)
    and hashed into the rows of the embedding table, so there is no
    vocabulary to build. The vector for a mask position is the mean
    embedding of the tokens within `radius` positions of it, the mask
    token included. The bucket of each raw token is kept once computed.
    """

    def __init__(self, embeddings: np.ndarray, radius: int = 5):
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or min(self.embeddings.shape) < 1 or radius < 0:
            raise ConfigError(f"bad encoder shape: table {self.embeddings.shape} radius={radius}")
        self.buckets, self.dim = self.embeddings.shape
        self.radius = radius
        self._bucket_of: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        b = self._bucket_of.get(token)
        if b is None:
            canonical = strip_clinging(token).lower()
            digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).digest()
            b = self._bucket_of[token] = int.from_bytes(digest, "big") % self.buckets
        return b

    def window_buckets(self, tokens: Sequence[str], position: int) -> np.ndarray:
        window = tokens[max(0, position - self.radius):position + self.radius + 1]
        ids = list(map(self._bucket_of.get, window))
        if None in ids:
            ids = [self.bucket(t) for t in window]
        return np.array(ids, dtype=np.intp)


@dataclass
class DualHeadModel:
    encoder: BaselineEncoder
    w_e: np.ndarray  # (dim,)
    w_r: np.ndarray  # (|inventory|, dim)
    inventory: tuple[TemporalUnit, ...]
    seed: int = 0

    @classmethod
    def create(cls, dim: int = 32, inventory: UnitInventory = UNITS_8, seed: int = 0,
               buckets: int = 4096, radius: int = 5) -> "DualHeadModel":
        """Fresh model with all parameters uniform in [-0.05, 0.05]."""
        inventory = tuple(inventory)
        if not inventory:
            raise ConfigError("inventory must be nonempty")
        if dim < 1 or buckets < 1:
            raise ConfigError(f"dim and buckets must be >= 1, got dim={dim} buckets={buckets}")
        rng = np.random.default_rng(seed)
        encoder = BaselineEncoder(rng.uniform(-0.05, 0.05, size=(buckets, dim)), radius)
        w_e = rng.uniform(-0.05, 0.05, size=dim)
        w_r = rng.uniform(-0.05, 0.05, size=(len(inventory), dim))
        return cls(encoder=encoder, w_e=w_e, w_r=w_r, inventory=inventory, seed=seed)

    @property
    def dim(self) -> int:
        return self.encoder.dim


@dataclass(frozen=True)
class _Windows:
    """Items compiled to the table rows of their mask windows' tokens; the
    windows of one item are adjacent and items keep their order.
    `distinct` is `np.unique(rows, return_inverse=True)`, when known."""

    rows: np.ndarray  # table row of every window token
    lengths: np.ndarray  # tokens per window
    counts: np.ndarray  # windows per item
    labels: np.ndarray  # log-seconds for mse, inventory index for cross_entropy
    distinct: tuple[np.ndarray, np.ndarray] | None = None


def _compile(model: DualHeadModel, inputs: Sequence[ModelInput], labels: Sequence = (),
             first: int = 0) -> _Windows:
    """Tokenize every input and hash each of its mask windows once; an
    error names the item by its index plus `first`."""
    encoder = model.encoder
    windows, counts = [], []
    for i, model_input in enumerate(inputs, first):
        if not model_input.mask_positions:
            raise InvalidInputError(f"item {i}: input has no mask positions")
        tokens = tokenize(model_input.text)
        for p in model_input.mask_positions:
            if not 0 <= p < len(tokens):
                raise InvalidInputError(f"item {i}: mask position {p} outside token range "
                                        f"0..{len(tokens) - 1}")
        windows += [encoder.window_buckets(tokens, p) for p in model_input.mask_positions]
        counts.append(len(model_input.mask_positions))
    return _Windows(rows=np.concatenate(windows), lengths=np.array(list(map(len, windows))),
                    counts=np.array(counts), labels=np.array(labels))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _epoch(data: _Windows, order: np.ndarray, size: int, span: int) -> Iterator[_Windows]:
    """The items of `data` in `order`, gathered once, as batches of `size`
    items. Every batch's `distinct` comes from one `np.unique` over the
    epoch's (batch, row) keys; every row is below `span`."""
    counts, labels = data.counts[order], data.labels[order]
    windows = _ranges((np.cumsum(data.counts) - data.counts)[order], counts)
    lengths = data.lengths[windows]
    rows = data.rows[_ranges((np.cumsum(data.lengths) - data.lengths)[windows], lengths)]
    # The first item, window, token and distinct row of every batch.
    i = np.arange(0, len(order) + size, size).clip(max=len(order))
    w = np.append(0, np.cumsum(counts))[i]
    t = np.append(0, np.cumsum(lengths))[w]
    keys, inverse = np.unique(np.repeat(np.arange(len(i) - 1) * span, np.diff(t)) + rows,
                              return_inverse=True)
    u = np.searchsorted(keys, np.arange(len(i)) * span)
    inverse -= np.repeat(u[:-1], np.diff(t))
    keys %= span
    i, w, t, u = i.tolist(), w.tolist(), t.tolist(), u.tolist()
    for b in range(len(i) - 1):
        yield _Windows(rows[t[b]:t[b + 1]], lengths[w[b]:w[b + 1]], counts[i[b]:i[b + 1]],
                       labels[i[b]:i[b + 1]], (keys[u[b]:u[b + 1]], inverse[t[b]:t[b + 1]]))


def _item_sums(embeddings: np.ndarray, batch: _Windows) -> np.ndarray:
    """For each item, the sum of its windows' mean token embeddings, as
    an (items, dim) array."""
    means = np.add.reduceat(embeddings[batch.rows], np.cumsum(batch.lengths) - batch.lengths)
    means /= batch.lengths[:, None]
    return np.add.reduceat(means, np.cumsum(batch.counts) - batch.counts)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (items, units) array."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# Items compiled and reduced at once by predict_many; it bounds the
# gathered embedding rows, whatever the size of the input list.
_PREDICT_CHUNK = 256


def predict_many(model: DualHeadModel, inputs: Sequence[ModelInput], head: str) -> list:
    """Predictions of one head for every input, in order.

    The "exact" head gives the dot product of the regression weights
    with the summed mask embeddings, in log-seconds; the "range" head a
    (unit, probabilities) pair from a softmax over the inventory, where
    ties go to the smaller unit. A prediction does not depend on the
    items around it. A head output that is not finite, which parameters
    too large for float64 arithmetic give, raises a ValueError naming
    the item and the head.
    """
    if head not in ("exact", "range"):
        raise ConfigError(f"head must be 'exact' or 'range', got {head!r}")
    embeddings = model.encoder.embeddings
    out = []
    for first in range(0, len(inputs), _PREDICT_CHUNK):
        chunk = _compile(model, inputs[first:first + _PREDICT_CHUNK], first=first)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            sums = _item_sums(embeddings, chunk)
            if head == "exact":
                outputs = np.einsum("id,d->i", sums, model.w_e)
            else:
                outputs = _softmax(np.einsum("id,ud->iu", sums, model.w_r))
        bad = np.nonzero(~np.isfinite(outputs))[0]
        if len(bad):
            raise ValueError(f"item {first + int(bad[0])}: the {head} head's output is not "
                             "finite; the model's parameters overflow float64")
        if head == "exact":
            out.extend(outputs.tolist())
        else:
            units = [model.inventory[u] for u in np.argmax(outputs, axis=1).tolist()]
            out.extend(zip(units, outputs))
    return out


def predict_exact(model: DualHeadModel, model_input: ModelInput) -> float:
    """Exact-value head on one input; see predict_many."""
    return predict_many(model, [model_input], "exact")[0]


def predict_range(model: DualHeadModel, model_input: ModelInput) -> tuple[TemporalUnit, np.ndarray]:
    """Range head on one input; see predict_many."""
    return predict_many(model, [model_input], "range")[0]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. The bare defaults are the pre-training ones."""

    learning_rate: float = 5e-5
    batch_size: int = 16
    warmup_proportion: float = 0.1
    epochs: int = 1
    seed: int = 0
    loss: str = "mse"  # "mse" for the exact head, "cross_entropy" for the range head

    def __post_init__(self) -> None:
        if self.loss not in ("mse", "cross_entropy"):
            raise ConfigError(f"loss must be 'mse' or 'cross_entropy', got {self.loss!r}")
        if not 0.0 <= self.warmup_proportion <= 1.0:
            raise ConfigError(f"warmup_proportion must be in [0, 1], got {self.warmup_proportion}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def finetuning(cls, **overrides) -> "TrainConfig":
        return cls(**{"learning_rate": 2e-5, "batch_size": 32, "epochs": 3, **overrides})


def _labels(model: DualHeadModel, data: Sequence[tuple[ModelInput, object]], loss: str) -> list:
    """The labels of `data` as log-seconds for mse and as inventory
    indices for cross_entropy; a label of the wrong kind is a ConfigError."""
    labels = []
    for i, (_, label) in enumerate(data):
        if loss == "mse":
            if isinstance(label, TemporalUnit) or not isinstance(label, (int, float)):
                raise ConfigError(f"mse loss needs numeric labels; item {i} has {type(label).__name__}")
            labels.append(float(label))
        elif not isinstance(label, TemporalUnit):
            raise ConfigError(
                f"cross_entropy loss needs TemporalUnit labels; item {i} has {type(label).__name__}"
            )
        elif label not in model.inventory:
            raise ConfigError(f"label {label.word} outside the model inventory")
        else:
            labels.append(model.inventory.index(label))
    return labels


def loss_and_grads(model: DualHeadModel, batch: Sequence[tuple[ModelInput, object]] | _Windows,
                   loss: str) -> tuple[float, dict]:
    """Mean batch loss and its analytic gradients.

    `batch` holds (input, label) pairs; `train` passes its items already
    compiled, so that each dataset is hashed once.
    The forward pass is the one prediction runs. The backward pass runs
    on the whole batch too: the head gradient is one matrix product with
    the item sums, and each item's gradient is spread over its window
    tokens with one weighted `np.bincount`.

    Returns gradients for the active head ("w_e" for mse, "w_r" for
    cross_entropy) and for the encoder embeddings. For a compiled batch
    "embeddings" is a (rows, values) pair: the batch's distinct table
    rows, ascending, and their (len(rows), dim) gradient; every other
    row's gradient is zero. For (input, label) pairs it is the dense
    (buckets, dim) table.
    """
    compiled = isinstance(batch, _Windows)
    if not compiled:
        batch = _compile(model, [mi for mi, _ in batch], _labels(model, batch, loss))
    embeddings = model.encoder.embeddings
    sums = _item_sums(embeddings, batch)
    n = len(sums)
    if loss == "mse":
        errs = np.einsum("id,d->i", sums, model.w_e) - batch.labels
        item_losses = errs * errs
        dv = 2.0 * errs / n
        grads = {"w_e": dv @ sums}
        d_sums = np.outer(dv, model.w_e)
    else:
        dz = _softmax(np.einsum("id,ud->iu", sums, model.w_r))
        picked = np.arange(n), batch.labels
        item_losses = -np.log(np.maximum(dz[picked], 1e-300))
        dz[picked] -= 1.0
        dz /= n
        grads = {"w_r": dz.T @ sums}
        d_sums = dz @ model.w_r

    d_windows = np.repeat(d_sums, batch.counts, axis=0) / batch.lengths[:, None]
    rows, slots = batch.distinct or np.unique(batch.rows, return_inverse=True)
    # A weighted bincount adds its weights in order from zero, so over
    # (row, column) indices it is the token-order scatter-add.
    dim = embeddings.shape[1]
    cells = (slots[:, None] * dim + np.arange(dim)).ravel()
    d_rows = np.bincount(cells, weights=np.repeat(d_windows, batch.lengths, axis=0).ravel(),
                         minlength=len(rows) * dim).reshape(len(rows), dim)
    if compiled:
        grads["embeddings"] = (rows, d_rows)
    else:
        grads["embeddings"] = np.zeros_like(embeddings)
        grads["embeddings"][rows] = d_rows
    return float(item_losses.sum()) / n, grads


def evaluate_loss(model: DualHeadModel, data: Sequence[tuple[ModelInput, object]], loss: str) -> float:
    """Mean loss over `data` without touching any parameter."""
    if not data:
        raise ConfigError("cannot evaluate loss on empty data")
    return loss_and_grads(model, data, loss)[0]


class _Adam:
    """Adaptive-moment updates of one parameter, in place, at a learning
    rate supplied per step.

    With the rows of `param` numbered in the order of their first
    gradient, the rows that have had one are a prefix [:k], and each step
    runs on that prefix alone. Every later row has m = v = 0, so the full
    update would leave it exactly as it is.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, param: np.ndarray):
        self.param = param
        self.m, self.v = np.zeros_like(param), np.zeros_like(param)
        self.scratch = (np.empty_like(param), np.empty_like(param))
        self.k = self.t = 0

    def step(self, lr: float, head: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """Step with a gradient that is `head` on the first len(head) rows,
        `values` on the distinct ascending `rows` (the prefix grows to take
        them in) and zero elsewhere: param -= lr * (m / (1 - beta1^t)) /
        (sqrt(v / (1 - beta2^t)) + eps) after the moment updates."""
        h = len(head)
        k = self.k = max(self.k, h, int(rows[-1]) + 1 if len(rows) else 0)
        self.t += 1
        m, v = self.m[:k], self.v[:k]
        step, denom = (s[:k] for s in self.scratch)
        m *= self.beta1
        m[:h] += head * (1.0 - self.beta1)
        m[rows] += values * (1.0 - self.beta1)
        v *= self.beta2
        v[:h] += head * (1.0 - self.beta2) * head
        v[rows] += values * (1.0 - self.beta2) * values
        np.divide(m, 1.0 - self.beta1 ** self.t, out=step)
        step *= lr
        np.divide(v, 1.0 - self.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self.param[:k] -= step


# A step loss above this has diverged: as a squared error it is a mean
# error of over 1000 log-seconds, and every finite positive duration has
# |ln s| < 745.
_DIVERGED_LOSS = 1e6


def _warmup_lr(base: float, step: int, warmup_steps: int) -> float:
    # 1-based step; linear ramp to the base rate, then constant.
    if warmup_steps <= 0:
        return base
    return base * min(1.0, step / warmup_steps)


def train(model: DualHeadModel, data: Iterable[tuple[ModelInput, object]],
          cfg: TrainConfig) -> tuple[DualHeadModel, list[float]]:
    """Train the head selected by cfg.loss (plus the encoder) in place.

    Labels must be log-second floats for "mse" and TemporalUnit members
    of the model inventory for "cross_entropy". Returns the model and the
    per-step loss curve. Empty data is a warned no-op. A step loss that
    is not finite or is above `_DIVERGED_LOSS` raises ValueError, and
    leaves the model as the steps before it made it.
    """
    data = list(data)
    if not data:
        logger.warning("train called with no data; model left unchanged")
        return model, []
    compiled = _compile(model, [mi for mi, _ in data], _labels(model, data, cfg.loss))
    steps = math.ceil(len(data) / cfg.batch_size)
    warmup_steps = math.ceil(cfg.warmup_proportion * (steps * cfg.epochs))
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(data))

    # Every item is in the first epoch, so its shuffle fixes each row's
    # first step. The rows, in (first step, bucket id) order, follow the
    # head in `buffer`; a row that never has a gradient stays out of it.
    head_key = "w_e" if cfg.loss == "mse" else "w_r"
    table, head = model.encoder.embeddings, getattr(model, head_key)
    h = head.size // model.dim
    first = np.full(len(table), steps)
    np.minimum.at(first, compiled.rows, np.repeat(
        np.repeat(np.argsort(order) // cfg.batch_size, compiled.counts), compiled.lengths))
    seen = np.argsort(first, kind="stable")[:np.count_nonzero(first < steps)]
    label = np.empty(len(table), dtype=np.intp)
    label[seen] = np.arange(h, h + len(seen))
    compiled = replace(compiled, rows=label[compiled.rows])
    buffer = np.concatenate((head.reshape(h, -1), table[seen]))
    work = replace(model, encoder=BaselineEncoder(buffer, model.encoder.radius),
                   **{head_key: buffer[:h].reshape(head.shape)})
    optimizer = _Adam(buffer)
    curve: list[float] = []
    try:
        for epoch in range(1, cfg.epochs + 1):
            if epoch > 1:
                order = rng.permutation(len(data))
            for batch in _epoch(compiled, order, cfg.batch_size, len(buffer)):
                with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
                    loss, grads = loss_and_grads(work, batch, cfg.loss)
                if not math.isfinite(loss) or loss > _DIVERGED_LOSS:
                    raise ValueError(f"training diverged at step {len(curve) + 1} (epoch {epoch}): "
                                     f"loss {loss:.6g} is not at most {_DIVERGED_LOSS:g}")
                lr = _warmup_lr(cfg.learning_rate, len(curve) + 1, warmup_steps)
                optimizer.step(lr, grads[head_key].reshape(h, -1), *grads["embeddings"])
                curve.append(loss)
            logger.info("epoch %d: %d steps, mean loss %.6g, learning rate %.6g",
                        epoch, steps, sum(curve[-steps:]) / steps, lr)
    finally:
        table[seen] = buffer[h:]
        head[...] = getattr(work, head_key)
    return model, curve


def with_inventory(model: DualHeadModel, inventory: UnitInventory) -> DualHeadModel:
    """Adapt a model to a prefix inventory by slicing the range head.

    Shrinking (8 units to 7) keeps the leading rows; growing is an error
    because the extra rows would be untrained.
    """
    inventory = tuple(inventory)
    if inventory == model.inventory:
        return model
    if len(inventory) > len(model.inventory):
        raise ConfigError(
            f"cannot grow inventory from {len(model.inventory)} to {len(inventory)} units"
        )
    if inventory != model.inventory[: len(inventory)]:
        raise ConfigError("target inventory is not a prefix of the model inventory")
    return replace(model, w_r=model.w_r[: len(inventory)].copy(), inventory=inventory)


def save(model: DualHeadModel) -> bytes:
    """Serialize to a deterministic, self-describing byte container."""
    header = {
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "buckets": model.encoder.buckets,
        "radius": model.encoder.radius,
        "seed": model.seed,
        "inventory": [u.word for u in model.inventory],
        "dtype": "<f8",
        "arrays": [
            {"name": "embeddings", "shape": list(model.encoder.embeddings.shape)},
            {"name": "w_e", "shape": list(model.w_e.shape)},
            {"name": "w_r", "shape": list(model.w_r.shape)},
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (model.encoder.embeddings, model.w_e, model.w_r)
    )
    return CHECKPOINT_MAGIC + struct.pack(">II", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes + payload


def load(blob: bytes) -> DualHeadModel:
    """Inverse of save(); raises CheckpointError on damage or version skew."""
    fixed = len(CHECKPOINT_MAGIC) + 8
    if len(blob) < fixed or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a model checkpoint (bad magic)")
    version, header_len = struct.unpack(">II", blob[len(CHECKPOINT_MAGIC):fixed])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
        )
    if len(blob) < fixed + header_len:
        raise CheckpointError("truncated checkpoint (incomplete header)")
    try:
        header = json.loads(blob[fixed:fixed + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    try:
        inventory = tuple(TemporalUnit.from_string(w) for w in header["inventory"])
        specs = [(a["name"], tuple(a["shape"])) for a in header["arrays"]]
        dim, buckets, radius, seed = (header[k] for k in ("dim", "buckets", "radius", "seed"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    for key, value in zip(("dim", "buckets", "radius", "seed"), (dim, buckets, radius, seed)):
        if type(value) is not int:
            raise CheckpointError(f"checkpoint header {key} is {value!r}, not an integer")

    expected = {"embeddings": (buckets, dim), "w_e": (dim,), "w_r": (len(inventory), dim)}
    if [name for name, _ in specs] != list(expected):
        raise CheckpointError(f"checkpoint arrays {[name for name, _ in specs]} are not {list(expected)}")
    arrays = {}
    offset = fixed + header_len
    for name, listed in specs:
        shape = expected[name]
        if listed != shape or any(type(n) is not int for n in listed):
            raise CheckpointError(f"array {name} has shape {list(listed)}, not the header's "
                                  f"{list(shape)}")
        if min(shape) < 1:
            raise CheckpointError(f"array {name} has an empty or negative shape {list(shape)}")
        count = math.prod(shape)
        nbytes = count * 8
        if len(blob) < offset + nbytes:
            raise CheckpointError(f"truncated checkpoint (array {name})")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"array {name} holds NaN or infinite values")
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError("trailing bytes after checkpoint payload")
    try:
        encoder = BaselineEncoder(arrays["embeddings"], radius)
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"inconsistent checkpoint contents: {exc}") from exc
    return DualHeadModel(encoder=encoder, w_e=arrays["w_e"], w_r=arrays["w_r"],
                         inventory=inventory, seed=seed)
