import numpy as np
import pytest

from copydet import (
    DimMismatch,
    EmbeddingSet,
    NegSubConfig,
    NonFiniteValue,
    ZeroVector,
    gen_world,
    subtract_negatives,
    subtract_negatives_batch,
    topk,
)
from copydet.postprocess import _subtract_rows
from copydet.search import row_blocks

from oracles import negsub_oracle, unit_set


class TestSubtractNegatives:
    def test_hand_example_2d(self):
        negs = EmbeddingSet(("n0",), np.array([[0.0, 1.0]], dtype=np.float32))
        out = subtract_negatives(np.array([1.0, 0.0]), negs, NegSubConfig(n=1, k=1, beta=0.35))
        expected = np.array([1.0, -0.35]) / np.linalg.norm([1.0, -0.35])
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_beta_zero_unchanged(self):
        rng = np.random.default_rng(0)
        negs = unit_set(rng, 20, 8)
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        out = subtract_negatives(x, negs, NegSubConfig(n=3, k=5, beta=0.0))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_n_zero_unchanged(self):
        rng = np.random.default_rng(1)
        negs = unit_set(rng, 20, 8)
        x = rng.standard_normal(8)
        np.testing.assert_array_equal(subtract_negatives(x, negs, NegSubConfig(n=0)), x)

    def test_matches_oracle_two_iterations(self):
        rng = np.random.default_rng(42)
        negs = unit_set(rng, 100, 16)
        for _ in range(20):
            x = rng.standard_normal(16)
            x /= np.linalg.norm(x)
            got = subtract_negatives(x, negs, NegSubConfig(n=2, k=10, beta=0.35))
            want = negsub_oracle(x, negs.matrix, 2, 10, 0.35)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_pool_smaller_than_k_undersubtracts(self):
        # Scale stays beta / requested k even when the pool is smaller.
        negs = EmbeddingSet(("n0",), np.array([[0.0, 1.0]], dtype=np.float32))
        out = subtract_negatives(np.array([1.0, 0.0]), negs, NegSubConfig(n=1, k=4, beta=0.4))
        expected = np.array([1.0, -0.1]) / np.linalg.norm([1.0, -0.1])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(5)
        negs = unit_set(rng, 50, 8)
        for _ in range(50):
            x = rng.standard_normal(8)
            out = subtract_negatives(x, negs, NegSubConfig(n=2, k=6, beta=0.5))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-6

    def test_neighbors_researched_between_iterations(self):
        # After iteration one the nearest negative flips from n0 to n1; an
        # implementation reusing iteration-one neighbors diverges.
        x = np.array([1.0, 0.0])
        n0 = np.array([0.9701425001453319, 0.24253562503633297])  # nearest initially
        n1 = np.array([0.9701425001453319, -0.24253562503633297])
        negs = EmbeddingSet(("n0", "n1"), np.stack([n0, n1]).astype(np.float32))
        cfg = NegSubConfig(n=2, k=1, beta=0.8)
        got = subtract_negatives(x, negs, cfg)
        want = negsub_oracle(x, negs.matrix, 2, 1, 0.8)
        np.testing.assert_allclose(got, want, atol=1e-9)

        # Frozen-neighbor variant for contrast.
        y = x.copy()
        first = negs.matrix.astype(np.float64) @ y
        frozen = int(np.argmax(first))
        for _ in range(2):
            y = y - 0.8 * negs.matrix[frozen].astype(np.float64)
            y = y / np.linalg.norm(y)
        assert np.max(np.abs(got - y)) > 1e-3

    def test_zero_vector_error(self):
        negs = EmbeddingSet(("n0",), np.array([[1.0, 0.0]], dtype=np.float32))
        with pytest.raises(ZeroVector):
            subtract_negatives(np.array([1.0, 0.0]), negs, NegSubConfig(n=1, k=1, beta=1.0))

    @pytest.mark.parametrize("entry", ["subtract_negatives", "subtract_negatives_batch"])
    def test_dim_mismatch(self, entry):
        # Both entry points share _subtract_rows's one check.
        rng = np.random.default_rng(0)
        negs = unit_set(rng, 5, 4)
        with pytest.raises(DimMismatch, match="dim 3 != negatives dim 4"):
            if entry == "subtract_negatives":
                subtract_negatives(np.ones(3), negs, NegSubConfig())
            else:
                subtract_negatives_batch(unit_set(rng, 2, 3, prefix="t"), negs, NegSubConfig())


class TestSubtractNegativesBatch:
    def test_singleton_equals_single_call(self):
        rng = np.random.default_rng(10)
        negs = unit_set(rng, 30, 8)
        targets = unit_set(rng, 1, 8, prefix="t")
        out = subtract_negatives_batch(targets, negs, NegSubConfig())
        single = subtract_negatives(targets.row(0), negs, NegSubConfig())
        np.testing.assert_allclose(out.row(0), single, atol=1e-7)

    def test_identical_targets_identical_outputs(self):
        rng = np.random.default_rng(11)
        negs = unit_set(rng, 30, 8)
        row = rng.standard_normal(8)
        row /= np.linalg.norm(row)
        targets = EmbeddingSet(("a", "b"), np.stack([row, row]).astype(np.float32))
        out = subtract_negatives_batch(targets, negs, NegSubConfig())
        np.testing.assert_array_equal(out.matrix[0], out.matrix[1])

    def test_rows_match_per_target_oracle(self):
        rng = np.random.default_rng(12)
        negs = unit_set(rng, 500, 16)
        targets = unit_set(rng, 50, 16, prefix="t")
        out = subtract_negatives_batch(targets, negs, NegSubConfig(n=2, k=10, beta=0.35))
        for i in range(targets.count):
            want = negsub_oracle(targets.row(i), negs.matrix, 2, 10, 0.35)
            np.testing.assert_allclose(out.row(i), want, atol=1e-6)

    def test_permutation_independence(self):
        rng = np.random.default_rng(13)
        negs = unit_set(rng, 40, 8)
        targets = unit_set(rng, 12, 8, prefix="t")
        out = subtract_negatives_batch(targets, negs, NegSubConfig())
        perm = rng.permutation(targets.count)
        shuffled = EmbeddingSet(
            tuple(targets.ids[i] for i in perm), targets.matrix[perm]
        )
        out_shuffled = subtract_negatives_batch(shuffled, negs, NegSubConfig())
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_array_equal(out_shuffled.matrix[new_pos], out.matrix[old_pos])

    def test_error_names_offending_target(self):
        negs = EmbeddingSet(("n0",), np.array([[1.0, 0.0]], dtype=np.float32))
        targets = EmbeddingSet(("ok", "dies"), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32))
        with pytest.raises(ZeroVector, match="dies"):
            subtract_negatives_batch(targets, negs, NegSubConfig(n=1, k=1, beta=1.0))

    def test_overflowing_subtraction_names_target(self):
        # Each row stays finite after the subtraction, but its squared norm overflows.
        rng = np.random.default_rng(16)
        negs = unit_set(rng, 8, 4)
        targets = unit_set(rng, 3, 4, prefix="t")
        with pytest.raises(NonFiniteValue, match=r"^descriptor 't0' has a non-finite norm \(inf\)$"):
            subtract_negatives_batch(targets, negs, NegSubConfig(n=1, k=2, beta=1e308))


class TestBlockedPath:
    def test_several_blocks_match_per_target_oracle(self):
        rng = np.random.default_rng(14)
        negs = unit_set(rng, 4096, 16)
        targets = unit_set(rng, 300, 16, prefix="t")
        assert len(list(row_blocks(targets.count, negs.count))) > 1
        cfg = NegSubConfig(n=2, k=10, beta=0.35)
        got = _subtract_rows(targets.matrix.astype(np.float64), negs, cfg)
        for i in range(targets.count):
            want = negsub_oracle(targets.row(i), negs.matrix, 2, 10, 0.35)
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)
        out = subtract_negatives_batch(targets, negs, cfg)
        np.testing.assert_array_equal(out.matrix, got.astype(np.float32))

    def test_zero_vector_in_later_block_names_that_target(self):
        # Targets 250 and 260 equal pool rows, so k=1, beta=1 annihilates
        # them; every other target survives. The error names the first.
        rng = np.random.default_rng(15)
        negs = unit_set(rng, 4096, 16)
        mat = unit_set(rng, 300, 16).matrix.copy()
        mat[250], mat[260] = negs.matrix[7], negs.matrix[99]
        targets = EmbeddingSet(tuple(f"t{i}" for i in range(300)), mat)
        assert next(row_blocks(300, negs.count)).stop <= 250
        with pytest.raises(ZeroVector, match=r"^descriptor 't250' "):
            subtract_negatives_batch(targets, negs, NegSubConfig(n=1, k=1, beta=1.0))

    def test_empty_pool_rejected_even_with_n_zero(self):
        empty = EmbeddingSet((), np.empty((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="empty"):
            subtract_negatives(np.ones(4), empty, NegSubConfig(n=0))


class TestIsolationEffect:
    def test_mean_similarity_to_near_negatives_drops(self):
        # Statistical property over seeded worlds: after the post-process a
        # query sits strictly farther (on average) from its k nearest pool
        # members than before.
        cfg = NegSubConfig(n=1, k=10, beta=0.35)
        for seed in range(5):
            world = gen_world(
                seed=seed, n_train=256, n_ref=256, n_query=64, d_in=16,
                copy_rate=0.25, tier="strong",
            )
            negs_mat = world.training.matrix.astype(np.float64)
            negs_mat /= np.linalg.norm(negs_mat, axis=1, keepdims=True)
            negs = EmbeddingSet(world.training.ids, negs_mat.astype(np.float32))
            q_mat = world.queries.matrix.astype(np.float64)
            q_mat /= np.linalg.norm(q_mat, axis=1, keepdims=True)
            queries = EmbeddingSet(world.queries.ids, q_mat.astype(np.float32))

            before, after = [], []
            processed = subtract_negatives_batch(queries, negs, cfg)
            for i in range(queries.count):
                _, scores = topk(queries.row(i), negs, cfg.k)
                before.append(np.mean(scores))
                _, scores_after = topk(processed.row(i), negs, cfg.k)
                after.append(np.mean(scores_after))
            assert np.mean(after) < np.mean(before)
