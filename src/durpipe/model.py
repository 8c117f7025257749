"""Dual-head duration predictor over hashed token-window embeddings.

Both heads read the same vector: the sum, over an input's mask
positions, of the mean embedding of the tokens in a window around each
one (BaselineEncoder hashes tokens into a fixed embedding table). The
exact head is a bias-free linear regression to a log-second value, the
range head a bias-free linear layer plus softmax over the unit
inventory. Both run on a whole batch at once as `np.einsum` products,
which give each item's row the same bits whatever rows surround it.
Prediction (`predict_many`) sums each item's window means; training
(`loss_and_grads`) takes the sums as matrix products, equal to rounding.

Training is minibatch gradient descent with row-sparse adaptive moments
(`_Adam`) and a linear-warmup-then-constant schedule. All randomness
flows from the config seed, so runs are bit-reproducible.
`DURPIPE_LOG=INFO` logs each epoch's steps, mean loss and learning rate;
a run that ends no better than a constant prediction warns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import struct
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .adapters import ModelInput
from .text import strip_clinging, tokenize
from .units import UNITS_8, ConfigError, TemporalUnit, UnitInventory

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


class CheckpointError(ValueError):
    """Raised when checkpoint bytes cannot be loaded."""


class BaselineEncoder:
    """Hashed-bucket token embeddings averaged over a context window.

    Tokens are canonicalized (clinging punctuation stripped, lowercased)
    and hashed into the rows of the embedding table, so there is no
    vocabulary to build. The vector for a mask position is the mean
    embedding of the tokens within `radius` positions of it, the mask
    token included. `bucket` caches the row of each raw token it is given.
    """

    def __init__(self, embeddings: np.ndarray, radius: int = 5):
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        if (self.embeddings.ndim != 2 or min(self.embeddings.shape) < 1
                or type(radius) is not int or radius < 0):
            raise ConfigError(f"bad encoder: table {self.embeddings.shape}, radius {radius!r}")
        self.buckets, self.dim = self.embeddings.shape
        self.radius = radius
        self.bucket = functools.cache(self._hash)

    def _hash(self, token: str) -> int:
        digest = hashlib.blake2b(strip_clinging(token).lower().encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.buckets

    def window_buckets(self, tokens: Sequence[str], position: int) -> list[int]:
        return list(map(self.bucket, tokens[max(0, position - self.radius):position + self.radius + 1]))


@dataclass
class DualHeadModel:
    """The encoder and both heads. The inventory is the first n >= 1 units
    of the unit order, `w_e` has shape (dim,), `w_r` (n, dim), and the seed
    is an int >= 0; a ConfigError names the field that breaks this."""
    encoder: BaselineEncoder
    w_e: np.ndarray
    w_r: np.ndarray
    inventory: tuple[TemporalUnit, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.inventory)
        if n < 1 or self.inventory != UNITS_8[:n]:
            raise ConfigError(f"inventory {list(map(str, self.inventory))} is not the first "
                              "n >= 1 units of the unit order")
        for name, shape in (("w_e", (self.dim,)), ("w_r", (n, self.dim))):
            if np.shape(getattr(self, name)) != shape:
                raise ConfigError(f"{name} has shape {np.shape(getattr(self, name))}, not {shape}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an int >= 0, got {self.seed!r}")

    @classmethod
    def create(cls, dim: int = 32, inventory: UnitInventory = UNITS_8, seed: int = 0,
               buckets: int = 4096, radius: int = 5) -> "DualHeadModel":
        """Fresh model with all parameters uniform in [-0.05, 0.05]."""
        inventory = tuple(inventory)
        if dim < 1 or buckets < 1:
            raise ConfigError(f"dim and buckets must be >= 1, got dim={dim} buckets={buckets}")
        rng = np.random.default_rng(seed)
        try:
            table = rng.uniform(-0.05, 0.05, size=(buckets, dim))
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"dim={dim} and buckets={buckets} give no table: {exc}") from exc
        encoder = BaselineEncoder(table, radius)
        w_e = rng.uniform(-0.05, 0.05, size=dim)
        w_r = rng.uniform(-0.05, 0.05, size=(len(inventory), dim))
        return cls(encoder=encoder, w_e=w_e, w_r=w_r, inventory=inventory, seed=seed)

    @property
    def dim(self) -> int:
        return self.encoder.dim


@dataclass(slots=True)
class _Windows:
    """Items compiled to the table rows of their mask windows' tokens; the
    windows of one item are adjacent and items keep their order."""

    rows: np.ndarray  # table row of every window token
    lengths: np.ndarray  # tokens per window
    counts: np.ndarray  # windows per item
    labels: np.ndarray  # log-seconds for mse, inventory index for cross_entropy


@dataclass(slots=True)
class _Entries:
    """Items as the entries of their averaging-matrix rows: each item's
    distinct table rows, in order of first appearance in its window
    tokens, and on each the sum of 1 / len(window) over the item's tokens
    on that row, added in token order; items keep their order."""

    rows: np.ndarray
    weights: np.ndarray
    counts: np.ndarray  # entries per item
    labels: np.ndarray


@dataclass(slots=True)
class _Batch:
    """A training batch as averaging matrices, one per block of at most
    `_BLOCK` items. A block is (matrix, cols, slots): the block's distinct
    table rows `cols`, in order of first appearance in its items' entries
    (so in its tokens), and the (items, len(cols)) matrix whose entry
    (i, c) is item i's weight on row cols[c] (see `_Entries`), or 0;
    `slots` places cols in `rows`: the head's `h` rows, then h plus each
    of the batch's distinct table rows, ascending (head and table stacked)."""

    labels: np.ndarray
    rows: np.ndarray
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _compile(model: DualHeadModel, inputs: Sequence[ModelInput], labels: Sequence = (),
             first: int = 0) -> _Windows:
    """Tokenize every input and hash each of its mask windows once; an
    error names the item by its index plus `first`."""
    encoder = model.encoder
    rows, lengths, counts = [], [], []
    for i, model_input in enumerate(inputs, first):
        if not model_input.mask_positions:
            raise InvalidInputError(f"item {i}: input has no mask positions")
        tokens = tokenize(model_input.text)
        for p in model_input.mask_positions:
            if not 0 <= p < len(tokens):
                raise InvalidInputError(f"item {i}: mask position {p} outside token range "
                                        f"0..{len(tokens) - 1}")
            window = encoder.window_buckets(tokens, p)
            rows += window
            lengths.append(len(window))
        counts.append(len(model_input.mask_positions))
    return _Windows(rows=np.array(rows, dtype=np.intp), lengths=np.array(lengths),
                    counts=np.array(counts), labels=np.array(labels))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mask of the first appearance of each distinct value of `keys`,
    and each key's value numbered in order of first appearance."""
    order = np.argsort(keys)  # each value's keys together, in any order
    ordered = keys[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # where a value's run starts
    firsts = np.minimum.reduceat(order, np.flatnonzero(new))
    first = np.zeros(len(keys), dtype=bool)
    first[firsts] = True
    numbers = np.empty_like(order)
    numbers[order] = (np.cumsum(first)[firsts] - 1)[np.cumsum(new) - 1]
    return first, numbers


def _entries(data: _Windows, span: int) -> _Entries:
    """The entries of `data`'s items (see `_Entries`), whose rows are below
    `span`: one weighted `np.bincount` adds each entry's weights in token
    order."""
    keys = np.repeat(np.repeat(np.arange(len(data.counts)) * span, data.counts), data.lengths)
    keys += data.rows
    first, cells = _first_seen(keys)
    weights = np.bincount(cells, weights=np.repeat(1.0 / data.lengths, data.lengths))
    counts = np.bincount(keys[first] // span, minlength=len(data.counts))
    return _Entries(data.rows[first], weights, counts, data.labels)


def _epoch(data: _Entries, order: np.ndarray, size: int, span: int, h: int) -> list[_Batch]:
    """The items of `data` in `order` as batches of `size` items, cut into
    blocks of `_BLOCK`, whose matrices are filled from the items' entries
    by one assignment. Every table row is below `span`, and `h` rows of
    the head go in front of each batch's rows."""
    n = len(order)
    counts = data.counts[order]
    entries = _ranges((np.cumsum(data.counts) - data.counts)[order], counts)
    rows = data.rows[entries]
    # A block starts at every _BLOCK-th item of a batch.
    starts = np.flatnonzero(np.arange(n) % size % _BLOCK == 0)
    items = np.diff(starts, append=n)
    block = np.repeat(np.arange(len(starts)), items)  # of every item
    # A block's columns are its distinct rows, numbered in the order of
    # their first entry; `cells` is each entry's column, then its place.
    keys = np.repeat(block * span, counts)
    keys += rows
    first, cells = _first_seen(keys)
    cols = rows[first]
    widths = np.bincount(keys[first] // span, minlength=len(starts))
    sizes = items * widths
    col_ends, ends = np.cumsum(widths), np.cumsum(sizes)
    base = ((ends - sizes) - (col_ends - widths))[block] + (np.arange(n) - starts[block]) * widths[block]
    cells += np.repeat(base, counts)
    matrices = np.zeros(ends[-1])
    matrices[cells] = data.weights[entries]
    # Each batch's rows, the head's first, and where each block's columns are in them.
    firsts, stride = np.arange(0, n + size, size), h + span
    batch = np.repeat(starts // size, widths)
    heads = np.add.outer(np.arange(len(firsts) - 1) * stride, np.arange(h)).ravel()
    distinct, slots = np.unique(np.concatenate((batch * stride + h + cols, heads)), return_inverse=True)
    u = np.searchsorted(distinct, np.arange(len(firsts)) * stride)
    slots = slots[:len(cols)] - u[batch]
    distinct %= stride
    blocks = [(matrices[e - s:e].reshape(k, w), cols[c - w:c], slots[c - w:c]) for k, w, s, e, c
              in zip(items.tolist(), widths.tolist(), sizes.tolist(), ends.tolist(), col_ends.tolist())]
    labels, u = data.labels[order], u.tolist()
    b = np.searchsorted(starts, firsts.clip(max=n)).tolist()
    return [_Batch(labels[i:i + size], distinct[u[j]:u[j + 1]], blocks[b[j]:b[j + 1]])
            for j, i in enumerate(firsts[:-1].tolist())]


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
# Items per averaging matrix in training: a batch is cut into blocks of
# this many items, so a matrix has at most this many rows whatever the
# batch size, and a default batch is one block.
_BLOCK = 16


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
        for name, least in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an int >= {least}, got {value!r}")
        rate, warmup = self.learning_rate, self.warmup_proportion
        # An int past the float range passes `< math.inf`, then fails to convert.
        if type(rate) not in (int, float) or not 0 <= rate <= sys.float_info.max:
            raise ConfigError(f"learning_rate must be a finite int or float >= 0, got {rate!r}")
        if type(warmup) not in (int, float) or not 0 <= warmup <= 1:
            raise ConfigError(f"warmup_proportion must be an int or float in [0, 1], got {warmup!r}")

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


def loss_and_grads(model: DualHeadModel,
                   batch: Sequence[tuple[ModelInput, object]] | _Batch,
                   loss: str) -> tuple[float, dict]:
    """Mean batch loss and its analytic gradients.

    `batch` holds (input, label) pairs; `train` passes its items already
    compiled and cut into blocks, so that each dataset is hashed once.
    Each block's item sums are one matrix product, `matrix @ E[cols]`
    (see `_Batch`), and the block's share of the embedding gradient is its
    transpose, `matrix.T @ d_sums`. One array on the batch's rows holds the
    gradient: the head's, one matrix product with the item sums, in its
    first h rows, then the first block's share, assigned, and the other
    blocks' shares, added in block order.

    A block's columns follow the first appearance of its rows in its
    tokens, so `train`, which relabels the rows, and the (input, label)
    path get the same bits. The blocks bound a matrix at `_BLOCK` rows,
    where one matrix per batch would grow with the batch size. The sums
    agree with prediction's window means to rounding only
    (`test_loss_and_grads_match_item_loop_within_rounding`). Prediction
    keeps those means: a product over shared columns could make one
    item's prediction depend on its neighbours.

    Returns gradients for the active head ("w_e" for mse, "w_r" for
    cross_entropy) and for the encoder embeddings. For a compiled batch
    "embeddings" is a (rows, values) pair: `batch.rows` and the
    (len(rows), dim) gradient on them, whose first h rows are the head's
    (a view of them is the head's entry); every other row's gradient is
    zero. For (input, label) pairs it is the dense (buckets, dim) table.
    """
    compiled = isinstance(batch, _Batch)
    embeddings, h = model.encoder.embeddings, 1 if loss == "mse" else len(model.w_r)
    if not compiled:
        windows = _compile(model, [mi for mi, _ in batch], _labels(model, batch, loss))
        n = len(windows.counts)
        batch = _epoch(_entries(windows, len(embeddings)), np.arange(n), n, len(embeddings), h)[0]
    n, dim = len(batch.labels), embeddings.shape[1]
    sums = np.empty((n, dim))
    for k, (matrix, cols, _) in enumerate(batch.blocks):
        np.matmul(matrix, embeddings[cols], out=sums[k * _BLOCK:(k + 1) * _BLOCK])
    # Zeros under the rows that the first block does not assign, if any.
    grad = (np.zeros if len(batch.blocks) > 1 else np.empty)((len(batch.rows), dim))
    if loss == "mse":
        errs = np.einsum("id,d->i", sums, model.w_e) - batch.labels
        item_losses = errs * errs
        dv = 2.0 * errs / n
        grad[0] = dv @ sums
        grads = {"w_e": grad[0]}
        d_sums = np.outer(dv, model.w_e)
    else:
        dz = _softmax(np.einsum("id,ud->iu", sums, model.w_r))
        picked = np.arange(n), batch.labels
        item_losses = -np.log(np.maximum(dz[picked], 1e-300))
        dz[picked] -= 1.0
        dz /= n
        grad[:h] = dz.T @ sums
        grads = {"w_r": grad[:h]}
        d_sums = dz @ model.w_r

    matrix, _, slots = batch.blocks[0]
    grad[slots] = matrix.T @ d_sums[:_BLOCK]
    for k, (matrix, _, slots) in enumerate(batch.blocks[1:], 1):
        grad[slots] += matrix.T @ d_sums[k * _BLOCK:(k + 1) * _BLOCK]
    if compiled:
        grads["embeddings"] = (batch.rows, grad)
    else:
        grads["embeddings"] = np.zeros_like(embeddings)
        grads["embeddings"][batch.rows[h:] - h] = grad[h:]
    return float(item_losses.sum()) / n, grads


def evaluate_loss(model: DualHeadModel, data: Sequence[tuple[ModelInput, object]], loss: str) -> float:
    """Mean loss over `data` without touching any parameter."""
    if not data:
        raise ConfigError("cannot evaluate loss on empty data")
    return loss_and_grads(model, data, loss)[0]


class _Adam:
    """Row-sparse ("lazy") adaptive-moment updates of a copy of one
    parameter, at a learning rate supplied per step, as TensorFlow Addons'
    `LazyAdam` and PyTorch's `SparseAdam` update embedding tables. A step
    decays and updates the moments of the rows with a gradient and moves
    those rows, with the bias corrections of the global step count; every
    other row keeps its value and moments bit for bit. `state` stacks m, v
    and the parameter, so that a step gathers and scatters its rows once."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, param: np.ndarray):
        self.state = np.stack((np.zeros_like(param), np.zeros_like(param), param))
        self.m, self.v, self.param = self.state
        self.t = 0

    def step(self, lr: float, rows: np.ndarray, values: np.ndarray) -> None:
        """Step with a gradient that is `values` on the distinct `rows`:
        after their moment updates,
        param[rows] -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)."""
        self.t += 1
        m, v, param = state = self.state.take(rows, axis=1)
        m *= self.beta1
        m += values * (1.0 - self.beta1)
        v *= self.beta2
        v += values * (1.0 - self.beta2) * values
        param -= (m / (1.0 - self.beta1 ** self.t) * lr
                  / (np.sqrt(v / (1.0 - self.beta2 ** self.t)) + self.eps))
        self.state[:, rows] = state


# A step loss above this has diverged: as a squared error it is a mean
# error of over 1000 log-seconds, and every finite positive duration has
# |ln s| < 745.
_DIVERGED_LOSS = 1e6
# Cross-entropy is clamped at -ln 1e-300 (about 690.8), so it never passes
# the bound above: a range run whose last epoch's mean step loss is above
# half the clamp has diverged.
_DIVERGED_CROSS_ENTROPY = -math.log(1e-300) / 2


def _warmup_lr(base: float, step: int, warmup_steps: int) -> float:
    # 1-based step; linear ramp to the base rate, then constant.
    if warmup_steps <= 0:
        return base
    return base * min(1.0, step / warmup_steps)


def train(model: DualHeadModel, data: Iterable[tuple[ModelInput, object]],
          cfg: TrainConfig) -> tuple[DualHeadModel, list[float]]:
    """Train the head selected by cfg.loss (plus the encoder) in place.

    The data is hashed and reduced to its items' entries once (`_Entries`),
    and each epoch's batches are built from them. Labels must be
    log-second floats for "mse" and TemporalUnit members of the model
    inventory for "cross_entropy". Returns the model and the per-step
    loss curve. Empty data is a warned no-op. A step loss that is not
    finite or is above `_DIVERGED_LOSS` raises ValueError, and leaves the
    model as the steps before it made it. A "cross_entropy" run whose last
    epoch's mean step loss is above `_DIVERGED_CROSS_ENTROPY` raises
    ValueError after its last step. A run whose last epoch's mean step
    loss is not below that of the best constant prediction logs a WARNING
    naming both and the learning rate.
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

    # The optimizer's copy of the head's h rows, then of the table rows the
    # data uses, ascending (entries number them from 0); each step's rows.
    head_key = "w_e" if cfg.loss == "mse" else "w_r"
    table, head = model.encoder.embeddings, getattr(model, head_key)
    h = head.size // model.dim
    seen, inverse = np.unique(compiled.rows, return_inverse=True)
    entries = _entries(replace(compiled, rows=inverse), len(seen))
    optimizer = _Adam(np.concatenate((head.reshape(h, -1), table[seen])))
    buffer = optimizer.param
    work = replace(model, encoder=BaselineEncoder(buffer[h:], model.encoder.radius),
                   **{head_key: buffer[:h].reshape(head.shape)})
    curve: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        try:
            for epoch in range(1, cfg.epochs + 1):
                if epoch > 1:
                    order = rng.permutation(len(data))
                for batch in _epoch(entries, order, cfg.batch_size, len(seen), h):
                    loss, grads = loss_and_grads(work, batch, cfg.loss)
                    if not math.isfinite(loss) or loss > _DIVERGED_LOSS:
                        raise ValueError(f"training diverged at step {len(curve) + 1} (epoch {epoch}): "
                                         f"loss {loss:.6g} is not at most {_DIVERGED_LOSS:g}")
                    lr = _warmup_lr(cfg.learning_rate, len(curve) + 1, warmup_steps)
                    optimizer.step(lr, *grads["embeddings"])
                    curve.append(loss)
                mean = sum(curve[-steps:]) / steps
                logger.info("epoch %d: %d steps, mean loss %.6g, learning rate %.6g",
                            epoch, steps, mean, lr)
        finally:
            table[seen] = buffer[h:]
            head[...] = getattr(work, head_key)
    if cfg.loss == "cross_entropy" and curve and mean > _DIVERGED_CROSS_ENTROPY:
        raise ValueError(f"training diverged in epoch {cfg.epochs}: mean loss {mean:.6g} "
                         f"is not at most {_DIVERGED_CROSS_ENTROPY:.6g}")
    # The best constant prediction's loss: the labels' variance, or their entropy.
    if cfg.loss == "mse":
        constant = float(np.var(entries.labels))
    else:
        p = np.unique(entries.labels, return_counts=True)[1] / len(data)
        constant = float(-(p * np.log(p)).sum())
    if curve and not mean < constant:
        logger.warning("training learned nothing: the last epoch's mean loss %.6g is not below "
                       "%.6g, that of a constant prediction, at learning rate %.6g",
                       mean, constant, cfg.learning_rate)
    return model, curve


def with_inventory(model: DualHeadModel, inventory: UnitInventory) -> DualHeadModel:
    """Adapt a model to a prefix inventory by slicing the range head.

    Shrinking (8 units to 7) keeps the leading rows; growing is an error
    because the extra rows would be untrained. The model itself refuses
    an inventory that is not the first units of the unit order.
    """
    inventory = tuple(inventory)
    if inventory == model.inventory:
        return model
    if len(inventory) > len(model.inventory):
        raise ConfigError(f"cannot grow inventory from {len(model.inventory)} to {len(inventory)} units")
    return replace(model, w_r=model.w_r[: len(inventory)].copy(), inventory=inventory)


def _header(model: DualHeadModel) -> bytes:
    """The JSON header of `model`'s checkpoint: the one `save` writes and
    the only one `load` accepts."""
    arrays = {"embeddings": model.encoder.embeddings, "w_e": model.w_e, "w_r": model.w_r}
    return json.dumps({
        "version": CHECKPOINT_VERSION, "dim": model.dim, "buckets": model.encoder.buckets,
        "radius": model.encoder.radius, "seed": model.seed, "dtype": "<f8",
        "inventory": [u.word for u in model.inventory],
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()],
    }, sort_keys=True).encode("utf-8")


def save(model: DualHeadModel) -> bytes:
    """Serialize to a deterministic, self-describing byte container."""
    header, arrays = _header(model), (model.encoder.embeddings, model.w_e, model.w_r)
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays)
    return CHECKPOINT_MAGIC + struct.pack(">II", CHECKPOINT_VERSION, len(header)) + header + payload


def load(blob: bytes) -> DualHeadModel:
    """Inverse of save(): a checkpoint loads only if save writes it back
    byte for byte. Otherwise it raises CheckpointError, which names the
    array that holds a NaN or infinity, the model field that breaks
    DualHeadModel's rules, or each header key that differs."""
    fixed = len(CHECKPOINT_MAGIC) + 8
    if len(blob) < fixed or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a model checkpoint (bad magic)")
    version, header_len = struct.unpack(">II", blob[len(CHECKPOINT_MAGIC):fixed])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (supported: {CHECKPOINT_VERSION})")
    raw, offset = blob[fixed:fixed + header_len], fixed + header_len
    try:
        header = json.loads(raw.decode("utf-8"))
        dim, buckets, n = header["dim"], header["buckets"], len(header["inventory"])
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    for key, value in (("dim", dim), ("buckets", buckets)):
        if type(value) is not int or value < 1:
            raise CheckpointError(f"checkpoint header {key} is {value!r}, not a positive integer")
    size = offset + 8 * dim * (buckets + 1 + n)
    if len(blob) != size:
        raise CheckpointError(f"checkpoint is {len(blob)} bytes; its dim, buckets and inventory give {size}")
    arrays = []
    for name, shape in (("embeddings", (buckets, dim)), ("w_e", (dim,)), ("w_r", (n, dim))):
        array = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.isfinite(array).all():
            raise CheckpointError(f"array {name} holds NaN or infinite values")
        arrays.append(array.reshape(shape).copy())
        offset += array.nbytes
    try:
        model = DualHeadModel(BaselineEncoder(arrays[0], header.get("radius")), *arrays[1:],
                              UNITS_8[:n], header.get("seed"))
    except ConfigError as exc:
        raise CheckpointError(f"inconsistent checkpoint: {exc}") from exc
    if raw != _header(model):
        want = json.loads(_header(model))
        keys = [k for k in sorted(header.keys() | want.keys())
                if (k in header and json.dumps(header[k])) != (k in want and json.dumps(want[k]))]
        raise CheckpointError(f"checkpoint header differs from what save writes in "
                              f"{', '.join(keys) or 'its spelling'}")
    return model
