"""Margin-based contrastive training with a cross-batch memory bank.

The encoder is a small affine map (optionally one tanh hidden layer)
followed by L2 normalization, trained with momentum SGD. Each batch pairs
two views of every training item, drawn for several batches at a time; a
stage at tier "none" feeds each item once instead, since its two views
would be identical. The loss counts all in-batch pairs plus all pairs
against a FIFO memory of embeddings from previous batches, and its cost
past the one distance gemm follows the candidate and active pairs. Bank
entries are constants: no gradient flows into them. Training proceeds in
stages of increasing transform magnitude, later stages mixing in
unaugmented reference items as extra negatives and ground-truth
query/reference pairs as extra positives.
"""

from __future__ import annotations

import math
import struct
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from .datagen import TIERS, AugmentTier, SyntheticWorld, augment_batch, get_tier
from .embedding import ZERO_NORM, EmbeddingSet, write_bytes_atomic
from .errors import EmptyBatch, FormatError, NonFiniteValue, ShapeMismatch, ZeroVector

ENCODER_MAGIC = b"ISCW"
ENCODER_VERSION = 1

_GRAD_EPS = 1e-12

# run_stage draws the views of this many batches with one augment_batch call
# per view: the per-call cost dominates at one batch, and a whole epoch at
# once would only raise peak memory.
_AUGMENT_BLOCK_BATCHES = 8


@dataclass(frozen=True)
class LossConfig:
    """Margins for the pairwise hinge loss on Euclidean distance."""

    pos_margin: float = 0.0
    neg_margin: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pos_margin < self.neg_margin:
            raise ValueError(
                f"need 0 <= pos_margin < neg_margin, got "
                f"{self.pos_margin} / {self.neg_margin}"
            )


class MemoryBank:
    """Fixed-capacity FIFO ring of (embedding, label) snapshots.

    Stored embeddings are plain copies of past batch outputs; they are
    never touched by gradients. Once full, each push evicts the oldest
    entries first. Capacity 0 is "no bank": it holds nothing, and a push
    is a no-op.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._emb = np.zeros((capacity, dim), dtype=np.float64)
        self._sq_norms = np.zeros(capacity, dtype=np.float64)
        self._labels = np.zeros(capacity, dtype=np.int64)
        self._size = 0
        self._cursor = 0
        self._scratch: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self._size

    @property
    def dim(self) -> int:
        return self._emb.shape[1]

    def push(self, embeddings: np.ndarray, labels: np.ndarray) -> None:
        """Append entries in batch order, evicting FIFO past capacity."""
        emb = np.asarray(embeddings, dtype=np.float64)
        labs = np.asarray(labels, dtype=np.int64)
        if emb.ndim != 2 or emb.shape[1] != self.dim or emb.shape[0] != labs.shape[0]:
            raise ShapeMismatch(
                f"push of {emb.shape} embeddings / {labs.shape} labels into "
                f"bank of dim {self.dim}"
            )
        n = emb.shape[0]
        # Of a push longer than the ring, only the newest `capacity` rows survive.
        first = max(0, n - self.capacity)
        ring = max(self.capacity, 1)
        slots = (self._cursor + np.arange(first, n)) % ring
        self._emb[slots] = emb[first:]
        self._sq_norms[slots] = _sq_norms(emb[first:])
        self._labels[slots] = labs[first:]
        self._cursor = (self._cursor + n) % ring
        self._size = min(self._size + n, self.capacity)

    def live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views, for reading, of the occupied slots in ring (storage) order:
        embeddings, their squared norms and labels. No copy is made."""
        n = self._size
        return self._emb[:n], self._sq_norms[:n], self._labels[:n]

    def _buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised buffer of ``shape``, reused across calls per name.

        The loss keeps its batch-by-bank temporaries here, so the training
        loop does not page-fault a fresh multi-megabyte array every step.
        Buffers grow geometrically while the bank fills.
        """
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            grown = 0 if buf is None else 2 * buf.size
            buf = self._scratch[name] = np.empty(max(size, grown), dtype)
        return buf[:size].reshape(shape)


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def contrastive_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    bank: MemoryBank | None,
    cfg: LossConfig,
) -> tuple[float, np.ndarray]:
    """Mean hinge loss over all counted pairs, plus descriptor gradients.

    Counted pairs are every in-batch pair i<j and every (batch, bank)
    pair. Same-label pairs contribute max(0, d - pos_margin), different
    labels max(0, neg_margin - d), with d the Euclidean distance. The mean
    runs over all counted pairs, active or not. Returns the loss and the
    gradient with respect to each batch embedding; bank entries get none.
    ``bank=None`` is an empty bank.

    Few pairs are active, so past the one distance gemm the work follows
    the candidate pairs: the same-label ones, and the different-label ones
    that one threshold pass finds inside the negative margin.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    labs = np.asarray(labels)
    if E.ndim != 2 or E.shape[0] != labs.shape[0]:
        raise ShapeMismatch(f"embeddings {E.shape} vs labels {labs.shape}")
    b = E.shape[0]
    if b == 0:
        raise EmptyBatch("contrastive_loss needs a nonempty batch")
    if bank is None:
        bank = MemoryBank(0, E.shape[1])
    bank_e, bank_sq, bank_labs = bank.live()
    m = bank_e.shape[0]
    n = b + m
    num_pairs = b * (b - 1) // 2 + b * m
    if num_pairs == 0:
        return 0.0, np.zeros_like(E)
    buffer = bank._buffer
    X = buffer("rows", (n, E.shape[1]))
    X[:b], X[b:] = E, bank_e
    sq = np.concatenate((_sq_norms(E), bank_sq))
    # The candidate bound below holds for finite rows only.
    if not np.isfinite(sq).all():
        raise NonFiniteValue("non-finite embedding in the loss")

    # Same-label pairs, compared only in the columns whose label occurs in
    # the batch: the b x b block and a few bank entries. The diagonal is no
    # pair. Flat indices address the b x n pair matrix. The lookup table
    # spans the batch's label range, at most n_train + n_ref bools; numpy's
    # default would sort all n labels once that range exceeds about 6n.
    X_labs = np.concatenate((labs, bank_labs))
    shared = np.flatnonzero(np.isin(X_labs, labs, kind="table"))
    r, c = np.nonzero(labs[:, None] == X_labs[shared])
    c = shared[c]
    same = r * n + c
    positives = same[r != c]

    # One gemm against [batch; bank]: g = -2 e.x (-2E is exact), and the
    # squared distance of a pair is (g + |e|^2) + |x|^2, the true Euclidean
    # one rather than the unit-sphere shortcut, so the gradients stay exact
    # for off-sphere probe points.
    g = np.matmul(-2.0 * E, X.T, out=buffer("dist", (b, n)))

    # Negative candidates in one threshold pass: d^2 < neg_margin^2 implies
    # g < neg_margin^2 - min |e|^2 - min |x|^2, up to a rounding error far
    # below the slack (no term exceeds 4 max |x|^2). So the candidates hold
    # every active negative; the exact hinge test runs on their distances.
    nm2 = cfg.neg_margin * cfg.neg_margin
    bound = nm2 - sq[:b].min() - sq.min() + 1e-9 * (nm2 + 4.0 * sq.max())
    mask = np.less(g, bound, out=buffer("mask", (b, n), np.bool_))
    mask.reshape(-1)[same] = False
    pairs = np.concatenate((np.flatnonzero(mask), positives))
    n_neg = pairs.size - positives.size
    rows, cols = np.divmod(pairs, n)
    dist = g.reshape(-1)[pairs] + sq[rows]
    dist += sq[cols]
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    hinge = cfg.neg_margin - dist
    hinge[n_neg:] = dist[n_neg:] - cfg.pos_margin
    active = hinge > 0.0

    # Each active term contributes d(term)/d(dist) / dist as a
    # vector-difference coefficient: w_ij = 1/d pushes e_i away from a
    # negative x_j, -1/d pulls it toward a positive one, and
    # grad_i = sum_j w_ij (x_j - e_i). Coincident pairs (dist ~ 0) take
    # subgradient zero. Both entries of an in-batch pair are candidates, so
    # each in-batch pair moves both of its rows. The differences are taken
    # per live pair, so bitwise-identical rows add exactly 0, and one
    # bincount over flat (row, coordinate) indices sums them by row. On no
    # live pair bincount returns int64 zeros, hence the cast.
    live = np.flatnonzero(active & (dist > _GRAD_EPS))
    coef = 1.0 / dist[live]
    coef[live >= n_neg] *= -1.0
    live_rows, dim = rows[live], E.shape[1]
    terms = X[cols[live]]
    terms -= E[live_rows]
    terms *= coef[:, None]
    flat = (live_rows * dim)[:, None] + np.arange(dim)
    grad = np.bincount(flat.ravel(), terms.ravel(), b * dim).astype(np.float64, copy=False)
    grad = grad.reshape(b, dim) / num_pairs

    # In-batch pairs count once (j > i); every (batch, bank) pair counts.
    total = hinge[active & ((cols >= b) | (cols > rows))].sum()
    return total / num_pairs, grad


def sgd_momentum_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: list[np.ndarray] | None,
    lr: float,
    momentum: float = 0.9,
) -> list[np.ndarray]:
    """Classic momentum update in place: v <- momentum*v + g; p <- p - lr*v.

    Velocities start at zero when ``state`` is None. Returns the state for
    the next step.
    """
    if state is None:
        state = [np.zeros_like(p) for p in params]
    if not (len(params) == len(grads) == len(state)):
        raise ShapeMismatch("params, grads, and state must have equal length")
    for p, g, v in zip(params, grads, state):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeMismatch(f"param {p.shape} vs grad {g.shape} vs state {v.shape}")
        v *= momentum
        v += g
        p -= lr * v
    return state


class Encoder:
    """Affine map (optional tanh hidden layer) followed by L2 normalization.

    A stand-in for a full image backbone: small enough that its gradients
    can be checked against finite differences in tests.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        if len(layers) not in (1, 2):
            raise ValueError("encoder supports 1 or 2 affine layers")
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b_, dtype=np.float64))
            for w, b_ in layers
        ]
        for i, (w, b_) in enumerate(self.layers):
            if w.ndim != 2 or b_.shape != (w.shape[1],):
                raise ShapeMismatch(f"layer shapes {w.shape} / {b_.shape}")
            if i and w.shape[0] != self.layers[i - 1][0].shape[1]:
                raise ShapeMismatch("hidden layer width mismatch between layers")

    @classmethod
    def init(cls, d_in: int, d_out: int, hidden: int = 0, rng: np.random.Generator | None = None) -> "Encoder":
        """Random init, scaled by 1/sqrt(fan_in); biases zero."""
        if rng is None:
            rng = np.random.default_rng(0)
        widths = [d_in, hidden, d_out] if hidden > 0 else [d_in, d_out]
        return cls([
            (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), np.zeros(fan_out))
            for fan_in, fan_out in zip(widths, widths[1:])
        ])

    @property
    def d_in(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def d_out(self) -> int:
        return self.layers[-1][0].shape[1]

    def params(self) -> list[np.ndarray]:
        return [arr for layer in self.layers for arr in layer]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Unit-norm descriptors for raw input rows."""
        return self._forward_cached(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]

    def _forward_cached(self, x: np.ndarray):
        # inputs[i] is layer i's input: x, then the tanh of each hidden layer.
        inputs = [x]
        for w, b_ in self.layers[:-1]:
            inputs.append(np.tanh(inputs[-1] @ w + b_))
        w, b_ = self.layers[-1]
        z = inputs[-1] @ w + b_
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(z, axis=1)
        # An overflowing norm would silently turn z / norms into zeros.
        if not np.all(np.isfinite(norms)):
            raise NonFiniteValue("encoder produced a non-finite descriptor norm")
        if np.any(norms < ZERO_NORM):
            raise ZeroVector("encoder produced a zero descriptor")
        e = z / norms[:, None]
        return e, (inputs, e, norms)

    def _backward(self, cache, grad_e: np.ndarray) -> list[np.ndarray]:
        inputs, e, norms = cache
        # Through z -> z/||z||: dz = (g - (g.e) e) / ||z||, per row. Then
        # from the last layer back: grad is the gradient of layer i's affine
        # output, and its input is the tanh of layer i-1's, so the chain
        # through tanh multiplies by 1 - inputs[i]^2.
        grad = (grad_e - np.sum(grad_e * e, axis=1)[:, None] * e) / norms[:, None]
        grads: list[np.ndarray] = []
        for i in reversed(range(len(self.layers))):
            h = inputs[i]
            grads[:0] = [h.T @ grad, grad.sum(axis=0)]
            if i:
                grad = (grad @ self.layers[i][0].T) * (1.0 - h * h)
        return grads

    def encode_set(self, es: EmbeddingSet) -> EmbeddingSet:
        """Encode a raw set into a unit-norm descriptor set, ids preserved."""
        out = self.forward(es.matrix.astype(np.float64))
        return EmbeddingSet(es.ids, out.astype(np.float32), unit_norm=True)

    def save(self, path: str | Path) -> None:
        """Checkpoint: magic ISCW, version, layer dims, float32 weights."""
        parts = [ENCODER_MAGIC, struct.pack("<II", ENCODER_VERSION, len(self.layers))]
        for w, b_ in self.layers:
            parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
            parts.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
            parts.append(np.ascontiguousarray(b_, dtype="<f4").tobytes())
        write_bytes_atomic(path, b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "Encoder":
        blob = Path(path).read_bytes()
        if len(blob) < 12 or blob[:4] != ENCODER_MAGIC:
            raise FormatError(f"{path}: not an encoder checkpoint")
        version, n_layers = struct.unpack_from("<II", blob, 4)
        if version != ENCODER_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n_layers not in (1, 2):
            raise FormatError(f"{path}: bad layer count {n_layers}")
        offset = 12
        layers = []
        for _ in range(n_layers):
            if offset + 8 > len(blob):
                raise FormatError(f"{path}: truncated layer header")
            di, do = struct.unpack_from("<II", blob, offset)
            offset += 8
            need = (di * do + do) * 4
            if offset + need > len(blob):
                raise FormatError(f"{path}: truncated layer payload")
            w = np.frombuffer(blob, dtype="<f4", count=di * do, offset=offset).reshape(di, do)
            offset += di * do * 4
            b_ = np.frombuffer(blob, dtype="<f4", count=do, offset=offset)
            offset += do * 4
            layers.append((w.astype(np.float64), b_.astype(np.float64)))
        if offset != len(blob):
            raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
        try:
            return cls(layers)
        except ShapeMismatch as exc:
            raise FormatError(f"{path}: {exc}") from exc


def encoder_loss_and_grads(
    encoder: Encoder,
    x: np.ndarray,
    labels: np.ndarray,
    bank: MemoryBank | None,
    cfg: LossConfig,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Loss over encoded inputs plus analytic parameter gradients.

    Returns (loss, gradients in ``encoder.params()`` order, embeddings).
    """
    e, cache = encoder._forward_cached(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    loss, grad_e = contrastive_loss(e, labels, bank, cfg)
    return loss, encoder._backward(cache, grad_e), e


def make_positive_pair(
    source: np.ndarray, tier: AugmentTier, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two views of a raw item, or of every row of a (B, d) block: a
    tier-strength transform and a weak one.

    Each view is one :func:`augment_batch` call over the whole block, the
    tier-strength view first; :func:`run_stage` passes the rows of several
    batches at once. The "none" tier returns the source unchanged twice and
    consumes no randomness; :func:`run_stage` does not call this at that
    tier and feeds the one unchanged view.
    """
    src = np.asarray(source, dtype=np.float64)
    block = np.atleast_2d(src)
    weak = tier if tier.name == "none" else TIERS["weak"]
    view_a = augment_batch(block, tier, rng)
    view_b = augment_batch(block, weak, rng)
    return view_a.reshape(src.shape), view_b.reshape(src.shape)


@dataclass
class StageConfig:
    """One step of the progressive schedule."""

    index: int
    tier: str
    include_reference_negatives: bool = False
    include_gt_positives: bool = False
    epochs: int = 2
    lr: float = 0.1
    batch_size: int = 32
    ref_per_batch: int = 16
    gt_per_batch: int = 8

    def __post_init__(self) -> None:
        get_tier(self.tier)
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "StageConfig":
        return config_from_dict(cls, d, "stage")


def config_from_dict(cls, d: dict, what: str):
    """Build the dataclass ``cls`` from a mapping read from a file.

    Unknown and missing fields, and values not of their field's declared
    type, raise ValueError naming them, so a bad config file ends in a
    one-line message instead of a TypeError. A bool is no int here, and a
    float field takes an int; a list field's items are checked by the
    class itself.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValueError(f"unknown {what} field(s): {', '.join(unknown)}")
    missing = sorted(
        f.name for f in fields(cls)
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING
    )
    if missing:
        raise ValueError(f"missing {what} field(s): {', '.join(missing)}")
    for name, hint in get_type_hints(cls).items():
        if name not in d:
            continue
        value = d[name]
        expected = get_origin(hint) or hint
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
            raise ValueError(
                f"{what} field {name!r} must be {expected.__name__}, got {type(value).__name__}"
            )
    return cls(**d)


def default_stage_schedule() -> list[StageConfig]:
    """Four stages: rising transform magnitude, then reference rows join as
    negatives, then ground-truth pairs join as positives."""
    return [
        StageConfig(index=1, tier="weak", epochs=2, lr=0.5),
        StageConfig(index=2, tier="intermediate", epochs=2, lr=0.3),
        StageConfig(index=3, tier="strong", include_reference_negatives=True, epochs=2, lr=0.2),
        StageConfig(
            index=4,
            tier="none",
            include_reference_negatives=True,
            include_gt_positives=True,
            epochs=2,
            lr=0.1,
        ),
    ]


def run_stage(
    encoder: Encoder,
    world: SyntheticWorld,
    stage: StageConfig,
    bank: MemoryBank,
    rng: np.random.Generator,
    loss_cfg: LossConfig = LossConfig(),
    momentum: float = 0.9,
) -> tuple[Encoder, dict]:
    """Train one stage in place; returns the encoder and stage metrics.

    Each epoch walks one permutation of the training items in batches.
    Every batch holds two augmented views per item, both labelled by the
    item; at tier "none" it holds the unchanged item once. The views are
    drawn for a block of ``_AUGMENT_BLOCK_BATCHES`` batches at a time, one
    :func:`augment_batch` call per view (:func:`make_positive_pair`), and
    each batch slices its rows out of the block. When enabled, unaugmented
    reference rows join the batch under their own labels (pure negatives)
    and ground-truth query/reference pairs join under a shared label (extra
    positives); reference and query rows are never augmented. After each
    optimizer step the batch embeddings are pushed into the bank.
    """
    tier = get_tier(stage.tier)
    train_raw = world.training.matrix.astype(np.float64)
    ref_raw = world.reference.matrix.astype(np.float64)
    query_raw = world.queries.matrix.astype(np.float64)
    n_train, n_ref = train_raw.shape[0], ref_raw.shape[0]
    qpos = {qid: i for i, qid in enumerate(world.queries.ids)}
    rpos = {rid: i for i, rid in enumerate(world.reference.ids)}
    gt_idx = np.array([(qpos[q], rpos[r]) for q, r in world.gt], dtype=np.int64).reshape(-1, 2)

    state: list[np.ndarray] | None = None
    epoch_losses: list[float] = []
    block_rows = _AUGMENT_BLOCK_BATCHES * stage.batch_size
    for epoch in range(stage.epochs):
        order = rng.permutation(n_train)
        batch_losses: list[float] = []
        for batch, start in enumerate(range(0, n_train, stage.batch_size)):
            offset = start % block_rows
            if offset == 0:
                block = train_raw[order[start : start + block_rows]]
                views = (block,) if tier.name == "none" else make_positive_pair(block, tier, rng)
            items = order[start : start + stage.batch_size]
            blocks = [view[offset : offset + stage.batch_size] for view in views]
            labels = [items] * len(views)
            if stage.include_reference_negatives:
                refs = rng.choice(n_ref, size=min(stage.ref_per_batch, n_ref), replace=False)
                blocks.append(ref_raw[refs])
                labels.append(n_train + refs)
            if stage.include_gt_positives and len(gt_idx):
                picks = rng.choice(len(gt_idx), size=min(stage.gt_per_batch, len(gt_idx)), replace=False)
                qi, ri = gt_idx[picks].T
                blocks += [query_raw[qi], ref_raw[ri]]
                labels += [n_train + ri, n_train + ri]
            x, y = np.concatenate(blocks), np.concatenate(labels)
            try:
                loss, grads, emb = encoder_loss_and_grads(encoder, x, y, bank, loss_cfg)
                if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads)):
                    raise NonFiniteValue(f"non-finite loss or gradient (loss {loss})")
            except NonFiniteValue as exc:
                raise NonFiniteValue(
                    f"stage {stage.index}, epoch {epoch + 1}, batch {batch + 1}: {exc}"
                ) from None
            state = sgd_momentum_step(encoder.params(), grads, state, stage.lr, momentum)
            bank.push(emb, y)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return encoder, {
        "stage": stage.index,
        "tier": stage.tier,
        "epochs": stage.epochs,
        "mean_loss": epoch_losses,
    }
