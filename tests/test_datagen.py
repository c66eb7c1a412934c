import os

import numpy as np
import pytest

from copydet import (
    TIERS,
    augment_batch,
    gen_world,
    get_tier,
    load_world,
    substream,
    write_world,
)


def mean_pairwise_cosine(matrix):
    """Exact mean over all ordered pairs i != j of cos(row_i, row_j)."""
    unit = matrix.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    n = unit.shape[0]
    total = np.linalg.norm(unit.sum(axis=0)) ** 2 - n
    return total / (n * (n - 1))


class TestAugmentOneRow:
    def test_none_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        out = augment_batch(v[None, :], TIERS["none"], rng)
        np.testing.assert_array_equal(out, v[None, :])

    def test_seeded_stream_deterministic(self):
        v = np.arange(16, dtype=np.float64)[None, :]
        a = augment_batch(v, TIERS["strong"], np.random.default_rng(99))
        b = augment_batch(v, TIERS["strong"], np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_input_not_mutated(self):
        v = np.ones((1, 16))
        keep = v.copy()
        augment_batch(v, TIERS["strong"], np.random.default_rng(1))
        np.testing.assert_array_equal(v, keep)

    def test_tier_monotonicity(self):
        # Expected cosine(source, transform) strictly decreases with tier
        # strength, Monte Carlo over seeded samples.
        rng = np.random.default_rng(42)
        sources = rng.standard_normal((1000, 32))
        means = {}
        for name in ("weak", "intermediate", "strong"):
            stream = np.random.default_rng(7)
            cosines = []
            for v in sources:
                out = augment_batch(v[None, :], TIERS[name], stream)[0]
                cosines.append(
                    np.dot(v, out) / (np.linalg.norm(v) * np.linalg.norm(out))
                )
            means[name] = np.mean(cosines)
        assert means["weak"] > means["intermediate"] > means["strong"]

    def test_tier_parameters_strictly_increase(self):
        weak, mid, strong = TIERS["weak"], TIERS["intermediate"], TIERS["strong"]
        for field in ("noise_sigma", "rotation_angle", "mix_high", "dropout_prob"):
            assert getattr(weak, field) < getattr(mid, field) < getattr(strong, field)

    def test_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown tier"):
            get_tier("extreme")


class TestGenWorld:
    def test_copy_rate_zero_empty_gt(self):
        world = gen_world(seed=1, n_train=32, n_ref=32, n_query=16, d_in=8, copy_rate=0.0)
        assert world.gt.positives == 0

    def test_copy_rate_one_tier_none_exact_copies(self):
        world = gen_world(
            seed=2, n_train=32, n_ref=64, n_query=16, d_in=8, copy_rate=1.0, tier="none"
        )
        assert world.gt.positives == 16
        rpos = {rid: i for i, rid in enumerate(world.reference.ids)}
        qpos = {qid: i for i, qid in enumerate(world.queries.ids)}
        for q, r in world.gt.pairs:
            np.testing.assert_array_equal(
                world.queries.matrix[qpos[q]], world.reference.matrix[rpos[r]]
            )

    def test_seed_determinism_bit_identical(self):
        a = gen_world(seed=5, n_train=64, n_ref=64, n_query=16, d_in=8)
        b = gen_world(seed=5, n_train=64, n_ref=64, n_query=16, d_in=8)
        assert a.gt == b.gt
        for x, y in [(a.training, b.training), (a.reference, b.reference), (a.queries, b.queries)]:
            assert x.ids == y.ids
            assert x.matrix.tobytes() == y.matrix.tobytes()

    def test_different_seeds_differ(self):
        a = gen_world(seed=5, n_train=16, n_ref=16, n_query=8, d_in=8)
        b = gen_world(seed=6, n_train=16, n_ref=16, n_query=8, d_in=8)
        assert a.training.matrix.tobytes() != b.training.matrix.tobytes()

    def test_at_most_one_gt_per_query(self):
        world = gen_world(seed=3, n_train=32, n_ref=64, n_query=32, d_in=8, copy_rate=0.8)
        queries = [q for q, _ in world.gt.pairs]
        assert len(queries) == len(set(queries))

    def test_training_reference_disjoint(self):
        world = gen_world(seed=4, n_train=128, n_ref=128, n_query=16, d_in=8)
        train_rows = {row.tobytes() for row in world.training.matrix}
        ref_rows = {row.tobytes() for row in world.reference.matrix}
        assert not train_rows & ref_rows

    def test_twin_property(self):
        # Training and reference sets are draws from one distribution; the
        # difference of their mean pairwise cosines must sit inside the noise
        # band obtained by resampling a single set against itself.
        deltas, null_deltas = [], []
        for seed in range(5):
            world = gen_world(seed=seed, n_train=512, n_ref=512, n_query=8, d_in=16)
            t = mean_pairwise_cosine(world.training.matrix)
            r = mean_pairwise_cosine(world.reference.matrix)
            deltas.append(abs(t - r))

            rng = np.random.default_rng(1000 + seed)
            pooled = world.training.matrix
            for _ in range(20):
                perm = rng.permutation(pooled.shape[0])
                half = pooled.shape[0] // 2
                a = mean_pairwise_cosine(pooled[perm[:half]])
                b = mean_pairwise_cosine(pooled[perm[half:]])
                null_deltas.append(abs(a - b))
        band = 3.0 * np.std(null_deltas) + np.mean(null_deltas)
        assert max(deltas) <= band


class TestWorldIO:
    def test_write_load_round_trip(self, tmp_path):
        world = gen_world(seed=9, n_train=32, n_ref=32, n_query=16, d_in=8, copy_rate=0.5)
        write_world(world, tmp_path)
        loaded = load_world(tmp_path)
        assert loaded.gt == world.gt
        assert loaded.training.matrix.tobytes() == world.training.matrix.tobytes()
        assert loaded.queries.ids == world.queries.ids
        assert not loaded.training.unit_norm

    def test_failed_replace_keeps_old_gt_and_leaves_no_temp(self, tmp_path, monkeypatch):
        write_world(gen_world(seed=9, n_train=8, n_ref=8, n_query=8, d_in=4, copy_rate=0.5), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_replace = os.replace

        def fail_on_gt(src, dst):
            if os.path.basename(dst) == "gt.csv":
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_gt)
        other = gen_world(seed=10, n_train=8, n_ref=8, n_query=8, d_in=4, copy_rate=1.0)
        with pytest.raises(OSError, match="disk full"):
            write_world(other, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(after) == sorted(before)
        assert after["gt.csv"] == before["gt.csv"]


class TestSubstream:
    def test_named_streams_independent_and_stable(self):
        a1 = substream(7, "world").standard_normal(4)
        a2 = substream(7, "world").standard_normal(4)
        b = substream(7, "train").standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
