"""Synthetic copy-detection worlds.

A world holds three raw feature sets drawn i.i.d. from a standard
Gaussian: training, reference, and query vectors. Training and reference
sets come from the same distribution with zero overlap, so training items
are guaranteed negatives for every query (the statistical-twin property
that makes them usable as hard negatives). A configurable fraction of the
queries are "copies": tier-strength transforms of a reference vector,
standing in for pixel-level image manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingSet, read_embeddings, write_embeddings
from .errors import FormatError
from .metrics import read_gt_pairs, write_gt_csv

TIER_NAMES = ("none", "weak", "intermediate", "strong")


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
    rows. The "none" tier returns an unchanged copy and consumes no
    randomness.
    """
    y = np.array(x, dtype=np.float64, order="C")
    if y.ndim != 2:
        raise ValueError(f"augment_batch needs a (B, d) block, got shape {y.shape}")
    if tier.name == "none":
        return y
    b, d = y.shape
    order = np.argsort(rng.random((b, 4)), axis=1)
    noise = rng.normal(0.0, tier.noise_sigma, (b, d))
    npairs = d // 4
    # Each row's disjoint coordinate pairs, as flat indices into y.
    pairs = np.argsort(rng.random((b, d)), axis=1)[:, : 2 * npairs] + d * np.arange(b)[:, None]
    first, second = pairs[:, :npairs], pairs[:, npairs:]
    theta = rng.uniform(-tier.rotation_angle, tier.rotation_angle, (b, npairs))
    cos, sin = np.cos(theta), np.sin(theta)
    alpha = rng.uniform(tier.mix_low, tier.mix_high, (b, 1))
    distractor = rng.standard_normal((b, d))
    keep = rng.random((b, d)) >= tier.dropout_prob
    flat = y.reshape(-1)
    for step in order.T:
        for op in range(4):
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


def augment_vector(v: np.ndarray, tier: AugmentTier, rng: np.random.Generator) -> np.ndarray:
    """Transform one raw vector: :func:`augment_batch` on a one-row block."""
    return augment_batch(np.asarray(v)[None, :], tier, rng)[0]


@dataclass(frozen=True)
class SyntheticWorld:
    """Training / reference / query raw sets plus (query, reference) ground truth."""

    training: EmbeddingSet
    reference: EmbeddingSet
    queries: EmbeddingSet
    gt: tuple[tuple[str, str], ...]

    @property
    def dim(self) -> int:
        return self.training.dim


def gen_world(
    seed: int,
    n_train: int = 4096,
    n_ref: int = 4096,
    n_query: int = 512,
    d_in: int = 64,
    copy_rate: float = 0.25,
    tier: str = "strong",
) -> SyntheticWorld:
    """Generate a seeded world; identical seeds yield bit-identical worlds.

    Copy queries are transforms of distinct reference rows at the given
    tier; the remaining queries are fresh draws (distractors) from the same
    distribution as the references.
    """
    if min(n_train, n_ref, n_query) < 1:
        raise ValueError("counts must be positive")
    if not 0.0 <= copy_rate <= 1.0:
        raise ValueError(f"copy_rate must be in [0, 1], got {copy_rate}")
    tier_cfg = get_tier(tier)
    rng = substream(seed, "world")

    train = rng.standard_normal((n_train, d_in))
    ref = rng.standard_normal((n_ref, d_in))

    n_copy = int(round(copy_rate * n_query))
    if n_copy > n_ref:
        raise ValueError(f"{n_copy} copy queries need at least that many references")
    src = rng.choice(n_ref, size=n_copy, replace=False)
    copies = augment_batch(ref[src], tier_cfg, rng)
    distractors = rng.standard_normal((n_query - n_copy, d_in))

    # Interleave copies and distractors so consumers cannot rely on order.
    slots = rng.permutation(n_query)
    queries = np.empty((n_query, d_in))
    queries[slots[:n_copy]] = copies
    queries[slots[n_copy:]] = distractors

    train_ids = tuple(f"T{i:06d}" for i in range(n_train))
    ref_ids = tuple(f"R{i:06d}" for i in range(n_ref))
    query_ids = tuple(f"Q{i:06d}" for i in range(n_query))
    gt = tuple(
        sorted((query_ids[int(slots[j])], ref_ids[int(src[j])]) for j in range(n_copy))
    )

    return SyntheticWorld(
        training=EmbeddingSet(train_ids, train.astype(np.float32), unit_norm=False),
        reference=EmbeddingSet(ref_ids, ref.astype(np.float32), unit_norm=False),
        queries=EmbeddingSet(query_ids, queries.astype(np.float32), unit_norm=False),
        gt=gt,
    )


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, independent RNG stream derived from one master seed."""
    digest = sum(ord(c) * 31**i for i, c in enumerate(name)) % (2**32)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(digest,)))


def write_world(world: SyntheticWorld, out_dir: str | Path) -> None:
    """Write the three raw sets and ``gt.csv`` into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_embeddings(world.training, out / "training.emb")
    write_embeddings(world.reference, out / "reference.emb")
    write_embeddings(world.queries, out / "queries.emb")
    write_gt_csv(out / "gt.csv", world.gt)


def load_world(world_dir: str | Path) -> SyntheticWorld:
    """Load a directory written by :func:`write_world`."""
    d = Path(world_dir)
    training = read_embeddings(d / "training.emb")
    reference = read_embeddings(d / "reference.emb")
    queries = read_embeddings(d / "queries.emb")
    gt_path = d / "gt.csv"
    gt = tuple(read_gt_pairs(gt_path))
    qids = set(queries.ids)
    rids = set(reference.ids)
    for q, r in gt:
        if q not in qids or r not in rids:
            raise FormatError(f"{gt_path}: pair ({q!r}, {r!r}) references unknown ids")
    return SyntheticWorld(training, reference, queries, gt)
