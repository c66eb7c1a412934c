import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copydet import (
    EmbeddingSet,
    EmptyGroundTruth,
    FormatError,
    GroundTruth,
    RankedMatches,
    build_candidates,
    micro_ap,
    read_gt_csv,
    read_matches_tsv,
    recall_at_precision,
    write_embeddings,
    write_matches_tsv,
)
from copydet.cli import main
from copydet.metrics import write_gt_csv

from oracles import ap_oracle, recall_oracle


def ranking(*pairs_with_flags):
    """Build a ranking from (is_positive,) flags; scores strictly decreasing."""
    entries = []
    gt = set()
    for i, flag in enumerate(pairs_with_flags):
        q, r = f"q{i}", f"r{i}"
        entries.append((q, r, float(len(pairs_with_flags) - i)))
        if flag:
            gt.add((q, r))
    return RankedMatches.from_candidates(entries), gt


class TestMicroAp:
    def test_hand_case_tp_fp_tp(self):
        ranked, gt_pairs = ranking(True, False, True)
        gt = GroundTruth(gt_pairs)
        np.testing.assert_allclose(micro_ap(ranked, gt), (1.0 + 2.0 / 3.0) / 2.0, atol=1e-9)

    def test_perfect_ranking(self):
        ranked, gt_pairs = ranking(True, True, True, False, False)
        assert micro_ap(ranked, GroundTruth(gt_pairs)) == 1.0

    def test_unreturned_positives_penalize(self):
        ranked, gt_pairs = ranking(True)
        gt = GroundTruth(gt_pairs | {("qx", "rx")})
        np.testing.assert_allclose(micro_ap(ranked, gt), 0.5)

    def test_empty_ground_truth(self):
        ranked, _ = ranking(False)
        with pytest.raises(EmptyGroundTruth):
            micro_ap(ranked, GroundTruth([]))

    def test_matches_counting_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            entries = [
                (f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(n)
            ]
            ranked = RankedMatches.from_candidates(entries)
            gt_pairs = {
                (q, r) for (q, r, _) in entries if rng.random() < 0.3
            } | {("extra_q", "extra_r")}
            gt = GroundTruth(gt_pairs)
            want = ap_oracle(ranked.entries, gt_pairs, len(gt_pairs))
            np.testing.assert_allclose(micro_ap(ranked, gt), want, atol=1e-12)


class TestRecallAtPrecision:
    def test_all_positives_then_one_negative(self):
        flags = [True] * 9 + [False]
        ranked, gt_pairs = ranking(*flags)
        gt = GroundTruth(gt_pairs)
        assert recall_at_precision(ranked, gt, 0.90) == 1.0

    def test_empty_ranking(self):
        gt = GroundTruth([("q", "r")])
        assert recall_at_precision(RankedMatches(), gt, 0.9) == 0.0

    def test_precision_never_reaches_threshold(self):
        ranked, gt_pairs = ranking(False, True)
        gt = GroundTruth(gt_pairs)
        assert recall_at_precision(ranked, gt, 0.9) == 0.0

    def test_non_increasing_in_p(self):
        rng = np.random.default_rng(3)
        flags = [bool(rng.random() < 0.5) for _ in range(50)]
        ranked, gt_pairs = ranking(*flags)
        gt = GroundTruth(gt_pairs)
        values = [recall_at_precision(ranked, gt, p) for p in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_fp_below_all_tps_no_change(self):
        ranked, gt_pairs = ranking(True, True, True)
        gt = GroundTruth(gt_pairs)
        before = recall_at_precision(ranked, gt, 0.9)
        extended = RankedMatches.from_candidates(
            list(ranked.entries) + [("qz", "rz", -100.0)]
        )
        assert recall_at_precision(extended, gt, 0.9) == before

    def test_matches_counting_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            entries = [
                (f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(n)
            ]
            ranked = RankedMatches.from_candidates(entries)
            gt_pairs = {(q, r) for (q, r, _) in entries if rng.random() < 0.4}
            if not gt_pairs:
                continue
            gt = GroundTruth(gt_pairs)
            for p in (0.3, 0.6, 0.9):
                want = recall_oracle(ranked.entries, gt_pairs, len(gt_pairs), p)
                np.testing.assert_allclose(
                    recall_at_precision(ranked, gt, p), want, atol=1e-12
                )


class TestMonotoneTransformInvariance:
    def test_both_metrics_rank_only(self):
        rng = np.random.default_rng(21)
        entries = [
            (f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(100)
        ]
        gt_pairs = {(q, r) for (q, r, _) in entries if rng.random() < 0.3}
        gt = GroundTruth(gt_pairs)
        base = RankedMatches.from_candidates(entries)
        for transform in (lambda s: 3.0 * s + 7.0, np.exp, lambda s: np.arctan(s)):
            mapped = RankedMatches.from_candidates(
                [(q, r, float(transform(s))) for q, r, s in entries]
            )
            assert micro_ap(mapped, gt) == micro_ap(base, gt)
            assert recall_at_precision(mapped, gt, 0.9) == recall_at_precision(base, gt, 0.9)


# Candidate lists on a few queries and references, with small integer
# scores so that ties are common, and a ground-truth flag per candidate.
_candidates = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-5, 5), st.booleans()),
    min_size=1,
    max_size=25,
    unique_by=lambda c: (c[0], c[1]),
)
_strictly_increasing = [lambda s: 3.0 * s - 7.0, lambda s: s**3, np.exp, np.arctan]


def _entries_and_gt(cands):
    entries = [(f"q{q}", f"r{r}", float(s)) for q, r, s, _ in cands]
    # One positive the ranking never retrieves, so recall stays below 1
    # and there is always a positive.
    gt = {(f"q{q}", f"r{r}") for q, r, _, pos in cands if pos} | {("q9", "r9")}
    return entries, GroundTruth(gt)


class TestRankOnlyProperties:
    """Both metrics read only the order of the candidates."""

    @settings(max_examples=200, deadline=None)
    @given(
        cands=_candidates,
        transform=st.sampled_from(_strictly_increasing),
        p=st.sampled_from([0.5, 0.9, 1.0]),
    )
    def test_strictly_increasing_rescoring(self, cands, transform, p):
        entries, gt = _entries_and_gt(cands)
        base = RankedMatches.from_candidates(entries)
        mapped = RankedMatches.from_candidates(
            [(q, r, float(transform(s))) for q, r, s in entries]
        )
        assert micro_ap(mapped, gt) == micro_ap(base, gt)
        assert recall_at_precision(mapped, gt, p) == recall_at_precision(base, gt, p)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cands=_candidates, p=st.sampled_from([0.5, 0.9, 1.0]))
    def test_permuted_candidates(self, data, cands, p):
        entries, gt = _entries_and_gt(cands)
        shuffled = data.draw(st.permutations(entries))
        base = RankedMatches.from_candidates(entries)
        permuted = RankedMatches.from_candidates(shuffled)
        assert micro_ap(permuted, gt) == micro_ap(base, gt)
        assert recall_at_precision(permuted, gt, p) == recall_at_precision(base, gt, p)


class TestRankedMatches:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RankedMatches.from_candidates([("q", "r", 1.0), ("q", "r", 0.5)])

    def test_tie_break_lexicographic(self):
        ranked = RankedMatches.from_candidates(
            [("qb", "r", 1.0), ("qa", "r2", 1.0), ("qa", "r1", 1.0)]
        )
        assert [(q, r) for q, r, _ in ranked.entries] == [
            ("qa", "r1"), ("qa", "r2"), ("qb", "r")
        ]


class TestBuildCandidates:
    def test_single_query_top1(self):
        refs = EmbeddingSet(("a", "b"), np.array([[1, 0], [0, 1]], dtype=np.float32))
        queries = EmbeddingSet(("q",), np.array([[0, 1]], dtype=np.float32))
        ranked = build_candidates(queries, refs, 1)
        assert ranked.entries == (("q", "b", 1.0),)

    def test_identical_scores_order_lexicographically(self):
        refs = EmbeddingSet(("rb", "ra"), np.array([[1, 0], [1, 0]], dtype=np.float32))
        queries = EmbeddingSet(("q2", "q1"), np.array([[1, 0], [1, 0]], dtype=np.float32))
        ranked = build_candidates(queries, refs, 2)
        assert [(q, r) for q, r, _ in ranked.entries] == [
            ("q1", "ra"), ("q1", "rb"), ("q2", "ra"), ("q2", "rb")
        ]

    def test_agrees_with_per_query_merge(self):
        from copydet import topk

        rng = np.random.default_rng(31)
        refs_mat = rng.standard_normal((1000, 8))
        refs_mat /= np.linalg.norm(refs_mat, axis=1, keepdims=True)
        refs = EmbeddingSet(tuple(f"r{i}" for i in range(1000)), refs_mat.astype(np.float32))
        q_mat = rng.standard_normal((100, 8))
        q_mat /= np.linalg.norm(q_mat, axis=1, keepdims=True)
        queries = EmbeddingSet(tuple(f"q{i}" for i in range(100)), q_mat.astype(np.float32))

        got = build_candidates(queries, refs, 3)
        solo = []
        for i in range(queries.count):
            idx, scores = topk(queries.row(i), refs, 3)
            for j, s in zip(idx.tolist(), scores.tolist()):
                solo.append((queries.ids[i], refs.ids[j], s))
        want = RankedMatches.from_candidates(solo)
        assert [(q, r) for q, r, _ in got.entries] == [(q, r) for q, r, _ in want.entries]
        np.testing.assert_allclose(
            [s for _, _, s in got.entries], [s for _, _, s in want.entries], atol=1e-6
        )


def running_sum_oracle(entries, gt_pairs, positives, p):
    """micro-AP and recall at ``p`` by one walk of the tuple ranking, adding
    each true pair's precision to a Python float in rank order."""
    total, best, tp = 0.0, 0.0, 0
    for rank, (q, r, _) in enumerate(entries, start=1):
        if (q, r) in gt_pairs:
            tp += 1
            total += tp / rank
            if tp / rank >= p:
                best = max(best, tp / positives)
    return total / positives, best


class TestArrayRanking:
    def test_metrics_equal_running_sum_oracle_bit_for_bit(self):
        # Integer scores on a few ids: many ties, broken by id order.
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            nq, nr = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            keys = rng.choice(nq * nr, size=int(rng.integers(1, nq * nr + 1)), replace=False)
            entries = [(f"q{k // nr}", f"r{k % nr}", float(rng.integers(-4, 5))) for k in keys]
            ranked = RankedMatches.from_candidates(entries)
            gt_pairs = {(q, r) for q, r, _ in entries if rng.random() < 0.4} | {("q_none", "r0")}
            gt = GroundTruth(gt_pairs)
            p = float(rng.choice([0.25, 0.5, 0.9, 1.0]))
            want_ap, want_recall = running_sum_oracle(ranked.entries, gt_pairs, len(gt_pairs), p)
            assert micro_ap(ranked, gt) == want_ap
            assert recall_at_precision(ranked, gt, p) == want_recall
            assert ranked.entries == tuple(sorted(entries, key=lambda c: (-c[2], c[0], c[1])))

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_search_writes_build_candidates_in_ranking_order(self, tmp_path, k):
        rng = np.random.default_rng(k)
        # Rows of +-e_i give tied scores; ids whose file order is not their
        # sorted order test the id tables.
        def axis_rows(n):
            return np.eye(4)[rng.integers(0, 4, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))

        refs = EmbeddingSet(tuple(f"r{i}" for i in rng.permutation(30)), axis_rows(30))
        queries = EmbeddingSet(tuple(f"q{i}" for i in rng.permutation(12)), axis_rows(12))
        assert list(refs.ids) != sorted(refs.ids) and list(queries.ids) != sorted(queries.ids)
        write_embeddings(refs, tmp_path / "r.emb")
        write_embeddings(queries, tmp_path / "q.emb")
        argv = ["search", "--queries", str(tmp_path / "q.emb"), "--db", str(tmp_path / "r.emb"),
                "--k", str(k), "--out", str(tmp_path / "m.tsv")]
        assert main(argv) == 0
        want = build_candidates(queries, refs, k).entries
        assert len(want) == 12 * min(k, 30)
        lines = (tmp_path / "m.tsv").read_text().splitlines()
        assert lines == [f"{q}\t{r}\t{s!r}" for q, r, s in want]
        assert read_matches_tsv(tmp_path / "m.tsv").entries == want


class TestMatchesTsv:
    def test_round_trip_preserves_ranking(self, tmp_path):
        rng = np.random.default_rng(41)
        entries = [(f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(50)]
        ranked = RankedMatches.from_candidates(entries)
        path = tmp_path / "matches.tsv"
        write_matches_tsv(path, ranked)
        got = read_matches_tsv(path)
        assert got.entries == ranked.entries

    def test_writes_to_handle(self):
        buf = io.StringIO()
        write_matches_tsv(buf, RankedMatches.from_candidates([("q", "r", 0.5)]))
        assert buf.getvalue() == "q\tr\t0.5\n"

    def test_tab_in_id_rejected_before_writing(self, tmp_path):
        cands = RankedMatches.from_candidates([("q", "r", 0.5), ("q", "r\t1", 0.25)])
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"'r\\t1'"):
            write_matches_tsv(buf, cands)
        assert buf.getvalue() == ""
        with pytest.raises(ValueError):
            write_matches_tsv(tmp_path / "m.tsv", cands)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "m.tsv"
        path.write_text(f"q1\tr1\t0.5\nq2\tr2\t{score}\n")
        with pytest.raises(FormatError, match=r"m\.tsv:2: non-finite score"):
            read_matches_tsv(path)


class TestGtCsv:
    def test_round_trip_keeps_file_order_and_bytes(self, tmp_path):
        pairs = [("q2", "r9"), ("q1", "r3"), ("q3", "r1")]
        path = tmp_path / "gt.csv"
        write_gt_csv(path, pairs)
        assert path.read_bytes() == b"query_id,reference_id\r\nq2,r9\r\nq1,r3\r\nq3,r1\r\n"
        assert read_gt_csv(path) == GroundTruth(pairs)


class TestGroundTruth:
    def test_pairs_held_once_and_sorted(self):
        pairs = [("q2", "r1"), ("q1", "r9"), ("q10", "r0"), ("q1", "r3")]
        rng = np.random.default_rng(0)
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        gt = GroundTruth(shuffled)
        assert gt == GroundTruth(sorted(pairs))
        assert list(gt.pairs) == sorted(pairs)
        assert GroundTruth(frozenset(pairs)) == gt

    @pytest.mark.parametrize("repeats, named", [(1, "('q2', 'r1')"), (2, "('q1', 'r9')")])
    def test_repeated_pair_raises_naming_it(self, repeats, named):
        # The sorted pairs are checked, so the smallest repeated pair is named.
        pairs = [("q2", "r1"), ("q1", "r9"), ("q10", "r0"), ("q1", "r3")]
        with pytest.raises(ValueError, match=re.escape(f"duplicate ground-truth pair {named}")):
            GroundTruth(pairs + pairs[:repeats])

    def test_positions_in_pair_order_with_missing_ids(self):
        gt = GroundTruth([("q3", "r1"), ("q1", "r2"), ("q2", "r9"), ("q9", "r1")])
        rows = gt.positions(("q3", "q1", "q2"), ["r2", "r1"])
        assert rows.dtype == np.int64
        # Pair order is sorted: q1, q2, q3, q9.
        assert rows.tolist() == [[1, 0], [2, -1], [0, 1], [-1, 1]]

    def test_positions_of_empty_ground_truth(self):
        rows = GroundTruth(()).positions(("q1",), ("r1",))
        assert rows.shape == (0, 2) and rows.dtype == np.int64
