"""Synthetic copy-detection worlds.

A world holds three raw feature sets drawn i.i.d. from a standard
Gaussian: training, reference, and query vectors. Training and reference
sets come from the same distribution with zero overlap, so training items
are guaranteed negatives for every query (the statistical-twin property
that makes them usable as hard negatives). A configurable fraction of the
queries are "copies": tier-strength transforms of a reference vector,
standing in for pixel-level image manipulation. A twin pool is one more
training-like set, drawn apart from the world and never trained on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingSet, read_embeddings, write_embeddings
from .errors import FormatError, check_at_least
from .metrics import GroundTruth, read_gt_csv, write_gt_csv


@dataclass(frozen=True)
class AugmentTier:
    """Magnitudes for one tier of the vector-space transform pipeline.

    Magnitudes increase strictly weak -> intermediate -> strong so that the
    expected cosine between a source and its transform decreases with tier
    strength.
    """

    name: str
    noise_sigma: float
    rotation_angle: float
    mix_low: float
    mix_high: float
    dropout_prob: float


TIERS: dict[str, AugmentTier] = {
    "none": AugmentTier("none", 0.0, 0.0, 0.0, 0.0, 0.0),
    "weak": AugmentTier("weak", 0.1, 0.1, 0.0, 0.0, 0.0),
    "intermediate": AugmentTier("intermediate", 0.3, 0.3, 0.0, 0.2, 0.05),
    "strong": AugmentTier("strong", 0.6, 0.6, 0.1, 0.5, 0.2),
}
TIER_NAMES = tuple(TIERS)


def get_tier(name: str) -> AugmentTier:
    try:
        return TIERS[name]
    except KeyError:
        raise ValueError(f"unknown tier {name!r}, expected one of {TIER_NAMES}") from None


def augment_batch(x: np.ndarray, tier: AugmentTier, rng: np.random.Generator) -> np.ndarray:
    """Transform every row of a raw (B, d) block at the given tier strength.

    Four ops run in an order drawn per row: additive Gaussian noise, planar
    rotations in d // 4 disjoint random coordinate pairs, a convex mix with
    a fresh distractor vector (overlay analog), and coordinate dropout
    (erasing analog). All draws for the block are made up front, so one
    call consumes the stream in a fixed order. Returns raw, unnormalized
    rows. An op whose magnitude is zero (noise_sigma, rotation_angle,
    mix_high, dropout_prob) cannot change a row, so it is skipped and draws
    nothing; when no op can act, as at the "none" tier, the call returns an
    unchanged copy and consumes no randomness.
    """
    y = np.array(x, dtype=np.float64, order="C")
    if y.ndim != 2:
        raise ValueError(f"augment_batch needs a (B, d) block, got shape {y.shape}")
    magnitudes = (tier.noise_sigma, tier.rotation_angle, tier.mix_high, tier.dropout_prob)
    ops = [op for op, magnitude in enumerate(magnitudes) if magnitude != 0.0]
    if not ops:
        return y
    b, d = y.shape
    order = np.argsort(rng.random((b, 4)), axis=1)
    if 0 in ops:
        noise = rng.normal(0.0, tier.noise_sigma, (b, d))
    if 1 in ops:
        npairs = d // 4
        # Each row's disjoint coordinate pairs, as flat indices into y.
        pairs = np.argsort(rng.random((b, d)), axis=1)[:, : 2 * npairs] + d * np.arange(b)[:, None]
        first, second = pairs[:, :npairs], pairs[:, npairs:]
        theta = rng.uniform(-tier.rotation_angle, tier.rotation_angle, (b, npairs))
        cos, sin = np.cos(theta), np.sin(theta)
    if 2 in ops:
        alpha = rng.uniform(tier.mix_low, tier.mix_high, (b, 1))
        distractor = rng.standard_normal((b, d))
    if 3 in ops:
        keep = rng.random((b, d)) >= tier.dropout_prob
    flat = y.reshape(-1)
    for step in order.T:
        for op in ops:
            rows = np.flatnonzero(step == op)
            if rows.size == 0:
                continue
            if op == 0:
                y[rows] += noise[rows]
            elif op == 1:
                i, j = first[rows], second[rows]
                yi, yj = flat[i], flat[j]
                c, s = cos[rows], sin[rows]
                flat[i] = c * yi - s * yj
                flat[j] = s * yi + c * yj
            elif op == 2:
                y[rows] = (1.0 - alpha[rows]) * y[rows] + alpha[rows] * distractor[rows]
            else:
                y[rows] *= keep[rows]
    return y


@dataclass(frozen=True)
class SyntheticWorld:
    """Training / reference / query raw sets plus (query, reference) ground truth."""

    training: EmbeddingSet
    reference: EmbeddingSet
    queries: EmbeddingSet
    gt: GroundTruth

    @property
    def dim(self) -> int:
        return self.training.dim


@dataclass(frozen=True)
class WorldConfig:
    """The settings of a synthetic world, checked when it is built.

    Raises ValueError naming the first size or the copy rate that is out
    of range, when the copies outnumber the references they are drawn
    from without replacement, or for an unknown tier.
    """

    n_train: int = 4096
    n_ref: int = 4096
    n_query: int = 1024
    d_in: int = 64
    copy_rate: float = 0.25
    tier: str = "strong"

    def __post_init__(self) -> None:
        for name in ("n_train", "n_ref", "n_query", "d_in"):
            check_at_least(name, getattr(self, name), 1)
        if not 0.0 <= self.copy_rate <= 1.0:
            raise ValueError(f"copy_rate must be in [0, 1], got {self.copy_rate}")
        if self.n_copy > self.n_ref:
            raise ValueError(
                f"copy_rate {self.copy_rate} of n_query {self.n_query} gives {self.n_copy} copy queries, "
                f"more than n_ref {self.n_ref}"
            )
        get_tier(self.tier)

    @property
    def n_copy(self) -> int:
        """The number of copy queries."""
        return int(round(self.copy_rate * self.n_query))


def gen_world(seed: int, world: WorldConfig = WorldConfig()) -> SyntheticWorld:
    """Generate a seeded world; identical seeds yield bit-identical worlds.

    Copy queries are transforms of distinct reference rows at the given
    tier; the remaining queries are fresh draws (distractors) from the same
    distribution as the references.
    """
    n_query, d_in, n_copy = world.n_query, world.d_in, world.n_copy
    rng = substream(seed, "world")

    train = rng.standard_normal((world.n_train, d_in))
    ref = rng.standard_normal((world.n_ref, d_in))

    src = rng.choice(world.n_ref, size=n_copy, replace=False)
    copies = augment_batch(ref[src], get_tier(world.tier), rng)
    distractors = rng.standard_normal((n_query - n_copy, d_in))

    # Interleave copies and distractors so consumers cannot rely on order.
    slots = rng.permutation(n_query)
    queries = np.empty((n_query, d_in))
    queries[slots[:n_copy]] = copies
    queries[slots[n_copy:]] = distractors

    reference, query_set = raw_set("R", ref), raw_set("Q", queries)
    gt = GroundTruth([(query_set.ids[int(slots[j])], reference.ids[int(src[j])]) for j in range(n_copy)])
    return SyntheticWorld(raw_set("T", train), reference, query_set, gt)


def twin_pool(seed: int, world: WorldConfig) -> EmbeddingSet:
    """``world.n_train`` raw rows from the training distribution, drawn from
    the seed's "eval" stream: a pool disjoint from the world's training set."""
    return raw_set("W", substream(seed, "eval").standard_normal((world.n_train, world.d_in)))


def raw_set(prefix: str, rows: np.ndarray) -> EmbeddingSet:
    """Raw ``rows``, stored as float32, named ``prefix`` plus a 6-digit row index."""
    ids = tuple(f"{prefix}{i:06d}" for i in range(len(rows)))
    return EmbeddingSet(ids, rows, unit_norm=False)


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, independent RNG stream derived from one master seed."""
    check_at_least("seed", seed, 0)
    digest = sum(ord(c) * 31**i for i, c in enumerate(name)) % (2**32)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(digest,)))


def write_world(world: SyntheticWorld, out_dir: str | Path) -> None:
    """Write the three raw sets and ``gt.csv`` into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_embeddings(world.training, out / "training.emb")
    write_embeddings(world.reference, out / "reference.emb")
    write_embeddings(world.queries, out / "queries.emb")
    write_gt_csv(out / "gt.csv", world.gt.pairs)


def load_world(world_dir: str | Path) -> SyntheticWorld:
    """Load a directory written by :func:`write_world`.

    The three raw sets must share one dimension; the first set whose
    dimension differs from ``training.emb``'s raises FormatError naming it.
    """
    d = Path(world_dir)
    training = read_embeddings(d / "training.emb")
    reference = read_embeddings(d / "reference.emb")
    queries = read_embeddings(d / "queries.emb")
    for name, es in (("reference.emb", reference), ("queries.emb", queries)):
        if es.dim != training.dim:
            raise FormatError(
                f"{d / name}: {es.dim}-dim rows, but training.emb has {training.dim}-dim rows"
            )
    gt_path = d / "gt.csv"
    gt = read_gt_csv(gt_path)
    for (q, r), rows in zip(gt.pairs, gt.positions(queries.ids, reference.ids).tolist()):
        if min(rows) < 0:
            raise FormatError(f"{gt_path}: pair ({q!r}, {r!r}) references unknown ids")
    return SyntheticWorld(training, reference, queries, gt)
