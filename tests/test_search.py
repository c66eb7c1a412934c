import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copydet import DimMismatch, EmbeddingSet, topk, topk_batch
from copydet.search import row_blocks, select_topk


def brute_force_topk(query, matrix, k):
    """Quadratic oracle: score every row in float64, full sort, index tie-break."""
    scores = matrix.astype(np.float64) @ np.asarray(query, dtype=np.float64)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order[: min(k, len(scores))]]


def lexsort_topk(scores, k):
    """Full-sort oracle for a score block: per row, score descending then index."""
    n = scores.shape[1]
    return np.stack([np.lexsort((np.arange(n), -row))[: min(k, n)] for row in scores])


def unit_set(rng, count, dim, prefix="r"):
    mat = rng.standard_normal((count, dim))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return EmbeddingSet(tuple(f"{prefix}{i}" for i in range(count)), mat.astype(np.float32))


class TestTopk:
    def test_exact_match(self):
        db = EmbeddingSet(("a", "b"), np.array([[1, 0], [0, 1]], dtype=np.float32))
        idx, scores = topk(np.array([1.0, 0.0]), db, 1)
        assert list(zip(idx.tolist(), scores.tolist())) == [(0, 1.0)]

    def test_analytic_scores(self):
        db = EmbeddingSet(("a", "b"), np.array([[0, 1], [0.6, 0.8]], dtype=np.float32))
        idx, scores = topk(np.array([1.0, 0.0]), db, 2)
        assert idx.tolist() == [1, 0]
        np.testing.assert_allclose(scores, [0.6, 0.0], atol=1e-6)

    def test_k_larger_than_db(self):
        db = unit_set(np.random.default_rng(0), 3, 4)
        idx, scores = topk(db.row(0), db, 10)
        assert len(idx) == len(scores) == 3

    def test_dim_mismatch(self):
        db = unit_set(np.random.default_rng(0), 3, 4)
        with pytest.raises(DimMismatch):
            topk(np.zeros(5), db, 1)

    def test_tie_break_ascending_index(self):
        row = np.array([0.6, 0.8], dtype=np.float32)
        db = EmbeddingSet(("a", "b", "c"), np.stack([row, [1, 0], row]))
        idx, _ = topk(np.array([0.6, 0.8]), db, 2)
        assert idx.tolist() == [0, 2]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(42)
        db = unit_set(rng, 1000, 16)
        for _ in range(20):
            q = rng.standard_normal(16)
            q /= np.linalg.norm(q)
            idx, scores = topk(q, db, 10)
            want = brute_force_topk(q, db.matrix, 10)
            assert idx.tolist() == [i for i, _ in want]
            np.testing.assert_allclose(
                scores, [s for _, s in want], atol=1e-6
            )

    def test_monotone_superset_in_k(self):
        rng = np.random.default_rng(3)
        db = unit_set(rng, 200, 8)
        q = rng.standard_normal(8)
        for k in range(1, 20):
            small = set(topk(q, db, k)[0].tolist())
            big = set(topk(q, db, k + 1)[0].tolist())
            assert small <= big


class TestTopkBatch:
    def test_singleton_batch(self):
        rng = np.random.default_rng(1)
        db = unit_set(rng, 50, 8)
        queries = unit_set(rng, 1, 8, prefix="q")
        idx, scores = topk_batch(queries, db, 5)
        single_idx, single_scores = topk(queries.row(0), db, 5)
        np.testing.assert_array_equal(idx[0], single_idx)
        np.testing.assert_array_equal(scores[0], single_scores)

    def test_empty_query_set(self):
        db = unit_set(np.random.default_rng(1), 10, 4)
        queries = EmbeddingSet((), np.empty((0, 4), dtype=np.float32))
        idx, scores = topk_batch(queries, db, 3)
        assert idx.shape == scores.shape == (0, 3)

    def test_empty_database(self):
        db = EmbeddingSet((), np.empty((0, 4), dtype=np.float32))
        queries = unit_set(np.random.default_rng(1), 3, 4, prefix="q")
        idx, scores = topk_batch(queries, db, 3)
        assert idx.shape == scores.shape == (3, 0)
        idx, scores = topk(queries.row(0), db, 3)
        assert idx.shape == scores.shape == (0,)

    def test_array_dtypes(self):
        rng = np.random.default_rng(2)
        idx, scores = topk_batch(unit_set(rng, 4, 4, prefix="q"), unit_set(rng, 9, 4), 5)
        assert idx.dtype == np.int64 and scores.dtype == np.float64
        assert idx.shape == scores.shape == (4, 5)

    def test_rows_match_independent_calls(self):
        rng = np.random.default_rng(11)
        db = unit_set(rng, 4096, 16)
        queries = unit_set(rng, 64, 16, prefix="q")
        idx, scores = topk_batch(queries, db, 7)
        for qi in range(queries.count):
            solo_idx, solo_scores = topk(queries.row(qi), db, 7)
            assert idx[qi].tolist() == solo_idx.tolist()
            np.testing.assert_allclose(
                scores[qi], solo_scores, atol=1e-6
            )

    def test_partition_invariance(self):
        rng = np.random.default_rng(12)
        db = unit_set(rng, 500, 8)
        queries = unit_set(rng, 30, 8, prefix="q")
        whole = topk_batch(queries, db, 4)
        first = EmbeddingSet(queries.ids[:13], queries.matrix[:13])
        second = EmbeddingSet(queries.ids[13:], queries.matrix[13:])
        parts = zip(topk_batch(first, db, 4), topk_batch(second, db, 4))
        split = [np.concatenate(p) for p in parts]
        for got, want in zip(whole, split):
            np.testing.assert_array_equal(got, want)

    def test_repeat_determinism(self):
        rng = np.random.default_rng(13)
        db = unit_set(rng, 300, 8)
        queries = unit_set(rng, 16, 8, prefix="q")
        a = topk_batch(queries, db, 5)
        b = topk_batch(queries, db, 5)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)


class TestSelectTopk:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 301])
    def test_forced_ties_match_full_sort(self, n):
        # Half the rows live on a coarse grid, so many scores tie with the
        # m-th largest; the other half are continuous and never tie.
        rng = np.random.default_rng(n)
        scores = rng.standard_normal((24, n))
        scores[::2] = np.round(scores[::2] * 2) / 2
        for k in sorted({1, 3, max(n - 1, 1), n, n + 5}):
            np.testing.assert_array_equal(select_topk(scores, min(k, n)), lexsort_topk(scores, k))

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                   elements=st.integers(-3, 3).map(float)),
        st.integers(1, 45),
    )
    def test_small_integer_scores_match_full_sort(self, scores, k):
        np.testing.assert_array_equal(
            select_topk(scores, min(k, scores.shape[1])), lexsort_topk(scores, k)
        )

    def test_ties_across_several_blocks(self):
        # Eight distinct directions repeated 512 times: every query ties
        # with hundreds of rows; the queries span several score blocks.
        rng = np.random.default_rng(21)
        base = unit_set(rng, 8, 16).matrix
        db = EmbeddingSet(tuple(f"r{i}" for i in range(4096)), np.tile(base, (512, 1)))
        queries = unit_set(rng, 100, 16, prefix="q")
        assert len(list(row_blocks(queries.count, db.count))) > 1
        idx, _ = topk_batch(queries, db, 12)
        for qi in range(queries.count):
            want = brute_force_topk(queries.row(qi), db.matrix, 12)
            assert idx[qi].tolist() == [i for i, _ in want]

    def test_winners_only_in_tail_columns(self):
        # Groups cover the first g * (n // g) columns: 192 of 200 at m = 3
        # (64 groups) and 4992 of 5000 at m = 5 (156 groups). The winners,
        # partly tied, sit only in the tail columns outside every group.
        rng = np.random.default_rng(31)
        for n, m, tail in [(200, 3, 192), (5000, 5, 4992)]:
            scores = rng.uniform(0.0, 1.0, (6, n))
            scores[:, tail:] = 2.0 + rng.integers(0, 3, (6, n - tail))
            idx = select_topk(scores, m)
            assert idx.min() >= tail
            np.testing.assert_array_equal(idx, lexsort_topk(scores, m))

    @pytest.mark.parametrize("n", [5, 33, 63])
    def test_fewer_columns_than_groups(self, n):
        # Below 64 columns every group is one column, so the bound is the
        # m-th score itself.
        rng = np.random.default_rng(n)
        scores = np.round(rng.standard_normal((10, n)) * 2) / 2
        for m in sorted({1, 2, n // 2 or 1, n - 1 or 1, n}):
            np.testing.assert_array_equal(select_topk(scores, m), lexsort_topk(scores, m))

    @pytest.mark.parametrize("n", [1, 64, 100, 300])
    def test_m_equals_n(self, n):
        rng = np.random.default_rng(n)
        scores = rng.integers(-2, 3, (5, n)).astype(float)
        np.testing.assert_array_equal(select_topk(scores, n), lexsort_topk(scores, n))

    @pytest.mark.parametrize("n, m", [(1, 1), (50, 7), (4096, 10), (4097, 40)])
    def test_every_score_in_a_row_tied(self, n, m):
        scores = np.full((3, n), 0.25)
        scores[1] = -1.0
        np.testing.assert_array_equal(select_topk(scores, m), np.tile(np.arange(m), (3, 1)))

    def test_top_scores_in_one_interleaved_group(self):
        # At n = 512, m = 5 there are 64 groups of the columns j + 64 i.
        # Group 7 holds every top score, so the other group maxima, and
        # with them the bound, are far below the winners.
        rng = np.random.default_rng(41)
        scores = rng.uniform(0.0, 1.0, (8, 512))
        scores[:, 7::64] = 5.0 + rng.integers(0, 4, (8, 8))
        idx = select_topk(scores, 5)
        assert np.all(idx % 64 == 7)
        np.testing.assert_array_equal(idx, lexsort_topk(scores, 5))

    def test_ties_straddling_the_mth_score_across_groups(self):
        # At n = 2048, m = 10 there are 64 groups of the columns j + 64 i.
        # Six distinct leaders, then one value shared by 12 columns, all 18
        # in different groups: the 10th place is a tie that only the column
        # order settles.
        rng = np.random.default_rng(43)
        scores = rng.uniform(0.0, 1.0, (6, 2048))
        for row in scores:
            cols = rng.choice(64, 18, replace=False) + 64 * rng.integers(0, 32, 18)
            row[cols[:6]] = 3.0 + np.arange(6)
            row[cols[6:]] = 2.0
        idx = select_topk(scores, 10)
        np.testing.assert_array_equal(idx, lexsort_topk(scores, 10))
        assert np.all(scores[np.arange(6), idx[:, -1]] == 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([63, 64, 65, 127, 128, 129, 159, 160, 161, 2047, 2048, 2049,
                         4095, 4096, 4097, 4127, 4128, 4129]),
        st.integers(1, 40),
        st.sampled_from([2, 5, 0]),
        st.integers(0, 2**32 - 1),
    )
    def test_group_width_boundaries_match_full_sort(self, n, m, levels, seed):
        # n sits on both sides of the points where the group count or the
        # group width changes; levels > 0 draws integer scores with ties.
        rng = np.random.default_rng(seed)
        if levels:
            scores = rng.integers(0, levels, (3, n)).astype(float)
        else:
            scores = rng.standard_normal((3, n))
        np.testing.assert_array_equal(select_topk(scores, m), lexsort_topk(scores, m))

    def test_row_blocks_cover_rows_in_order(self):
        for rows, n in [(0, 10), (1, 1), (1000, 8192), (5, 10**9)]:
            blocks = list(row_blocks(rows, n))
            covered = [i for b in blocks for i in range(b.start, b.stop)]
            assert covered == list(range(rows))
            assert all(b.stop > b.start for b in blocks)
