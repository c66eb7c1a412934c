"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from copydet import (
    EmbeddingSet,
    Encoder,
    GroundTruth,
    LossConfig,
    MemoryBank,
    NegSubConfig,
    RankedMatches,
    RunManifest,
    contrastive_loss,
    encoder_loss_and_grads,
    micro_ap,
    normalize,
    recall_at_precision,
    reproduce_trend,
    subtract_negatives,
    subtract_negatives_batch,
    swap_report,
    topk,
    topk_batch,
    train_and_embed,
    trend_report,
)

from bank_oracle import bank_contents

TREND_SEEDS = (0, 1, 2, 3, 4)


def _report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def unit_rows(rng, count, dim):
    m = rng.standard_normal((count, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def unit_set(rng, count, dim, prefix="v"):
    return EmbeddingSet(
        tuple(f"{prefix}{i}" for i in range(count)),
        unit_rows(rng, count, dim).astype(np.float32),
    )


def negsub_oracle(x, neg_matrix, n, k, beta):
    """Independent step-by-step reference with a full-sort neighbor search."""
    y = np.asarray(x, dtype=np.float64).copy()
    neg = np.asarray(neg_matrix, dtype=np.float64)
    for _ in range(n):
        scores = neg @ y
        order = np.lexsort((np.arange(len(scores)), -scores))
        for i in order[: min(k, len(scores))]:
            y = y - (beta / k) * neg[i]
        y = y / np.linalg.norm(y)
    return y


@pytest.fixture(scope="module")
def trained_runs():
    """One default staged training per seed, shared by criteria 7 and 8;
    training does not depend on out_dir."""
    started = time.perf_counter()
    runs = [train_and_embed(RunManifest(seed=seed, out_dir="")) for seed in TREND_SEEDS]
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def trend_reports(tmp_path_factory, trained_runs):
    runs, train_elapsed = trained_runs
    root = tmp_path_factory.mktemp("trend")
    started = time.perf_counter()
    reports = [
        trend_report(run, RunManifest(seed=seed, out_dir=str(root / f"s{seed}")))
        for seed, run in zip(TREND_SEEDS, runs)
    ]
    return reports, train_elapsed + time.perf_counter() - started


@pytest.fixture(scope="module")
def swap_reports(tmp_path_factory, trained_runs):
    runs, _ = trained_runs
    root = tmp_path_factory.mktemp("swap")
    return [
        swap_report(run, RunManifest(seed=seed, out_dir=str(root / f"s{seed}")))
        for seed, run in zip(TREND_SEEDS, runs)
    ]


class TestCriterion1SubtractionExactness:
    def test_oracle_agreement_and_hand_example(self):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(1000):
            dim = int(rng.integers(2, 65))
            count = int(rng.integers(1, 501))
            cfg = NegSubConfig(
                n=int(rng.integers(0, 4)),
                k=int(rng.integers(1, 17)),
                beta=float(rng.uniform(0.0, 0.5)),
            )
            negatives = unit_set(rng, count, dim)
            x = unit_rows(rng, 1, dim)[0]
            got = subtract_negatives(x, negatives, cfg)
            want = negsub_oracle(x, negatives.matrix, cfg.n, cfg.k, cfg.beta)
            np.testing.assert_allclose(got, want, atol=1e-6)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"1000 oracle instances took {elapsed:.1f}s"

        negs = EmbeddingSet(("n0",), np.array([[0.0, 1.0]], dtype=np.float32))
        got = subtract_negatives(np.array([1.0, 0.0]), negs, NegSubConfig(n=1, k=1, beta=0.35))
        expected = np.array([1.0, -0.35]) / np.linalg.norm([1.0, -0.35])
        np.testing.assert_allclose(got, expected, atol=1e-4)
        _report(1, f"1000 random instances match the step-by-step oracle to 1e-6 "
                   f"in {elapsed:.1f}s; 2-d hand example matches to 1e-4")


class TestCriterion2NormInvariant:
    def test_all_producing_operations_emit_unit_norm(self):
        rng = np.random.default_rng(7)
        worst = 0.0

        for _ in range(500):
            v = rng.standard_normal(int(rng.integers(1, 128))) * rng.uniform(1e-6, 1e3)
            worst = max(worst, abs(np.linalg.norm(normalize(v)) - 1.0))

        for hidden in (0, 16):
            enc = Encoder.init(24, 12, hidden=hidden, rng=rng)
            out = enc.forward(rng.standard_normal((500, 24)))
            worst = max(worst, np.abs(np.linalg.norm(out, axis=1) - 1.0).max())

        negatives = unit_set(rng, 200, 16)
        for _ in range(200):
            x = unit_rows(rng, 1, 16)[0]
            out = subtract_negatives(x, negatives, NegSubConfig(n=2, k=8, beta=0.4))
            worst = max(worst, abs(np.linalg.norm(out) - 1.0))
        batch = subtract_negatives_batch(unit_set(rng, 64, 16, "t"), negatives, NegSubConfig())
        norms = np.linalg.norm(batch.matrix.astype(np.float64), axis=1)
        worst = max(worst, np.abs(norms - 1.0).max())

        assert worst <= 1e-6
        _report(2, f"worst |norm - 1| across normalize/encoder/post-process = {worst:.2e}")


class TestCriterion3KnnExactness:
    def test_oracle_agreement_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            count = int(rng.integers(1, 5001))
            dim = int(rng.integers(1, 257))
            k = int(rng.integers(1, 33))
            db = unit_set(rng, count, dim)
            q = unit_rows(rng, 1, dim)[0]
            got_idx, got_scores = topk(q, db, k)
            scores = db.matrix.astype(np.float64) @ q
            order = np.lexsort((np.arange(count), -scores))[: min(k, count)]
            assert got_idx.tolist() == list(order)
            np.testing.assert_allclose(
                got_scores, scores[order], atol=1e-6
            )
        _report(3, "200 random instances up to 5000x256 match the quadratic oracle")

    def test_determinism_and_performance_floor(self):
        rng = np.random.default_rng(100)
        db = unit_set(rng, 2000, 32)
        queries = unit_set(rng, 64, 32, "q")
        whole = topk_batch(queries, db, 10)
        again = topk_batch(queries, db, 10)
        parts = []
        for lo, hi in ((0, 17), (17, 40), (40, 64)):
            parts.append(topk_batch(
                EmbeddingSet(queries.ids[lo:hi], queries.matrix[lo:hi]), db, 10
            ))
        # Indices, then scores: whole == again == the parts joined.
        for got, same, joined in zip(whole, again, zip(*parts)):
            np.testing.assert_array_equal(got, same)
            np.testing.assert_array_equal(got, np.concatenate(joined))

        big_db = unit_set(rng, 100_000, 256)
        big_queries = unit_set(rng, 64, 256, "q")
        started = time.perf_counter()
        result = topk_batch(big_queries, big_db, 10)
        elapsed = time.perf_counter() - started
        assert result[0].shape == result[1].shape == (64, 10)
        assert elapsed < 2.0, f"100k x 256, 64 queries took {elapsed:.2f}s"
        _report(3, f"bitwise identical across batch partitionings; "
                   f"100k x 256 x 64 queries in {elapsed:.2f}s (< 2s)")


class TestCriterion4GradientCorrectness:
    def test_fifty_random_configurations(self):
        rng = np.random.default_rng(1234)
        checked = 0
        worst_rel = 0.0
        for trial in range(50):
            hidden = int(rng.choice([0, 0, 5]))
            enc = Encoder.init(6, 4, hidden=hidden, rng=rng)
            batch = int(rng.integers(2, 8))
            x = rng.standard_normal((batch, 6))
            labels = rng.integers(0, 3, size=batch)
            bank = None
            if trial % 2 == 0:
                bank = MemoryBank(16, 4)
                size = int(rng.integers(1, 10))
                bank.push(unit_rows(rng, size, 4), rng.integers(0, 3, size=size))
            cfg = LossConfig(
                pos_margin=float(rng.choice([0.0, 0.1, 0.3])),
                neg_margin=float(rng.choice([0.8, 1.0, 1.4])),
            )
            _, grads, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)

            h = 1e-5
            for p, analytic in zip(enc.params(), grads):
                flat_p = p.reshape(-1)
                flat_a = analytic.reshape(-1)
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up, _, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
                    flat_p[i] = orig - h
                    down, _, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
                    flat_p[i] = orig
                    fd = (up - down) / (2.0 * h)
                    if abs(flat_a[i]) > 1e-8:
                        rel = abs(flat_a[i] - fd) / max(abs(flat_a[i]), abs(fd))
                        worst_rel = max(worst_rel, rel)
                        assert rel < 1e-4, f"trial {trial}, coord {i}: rel error {rel:.2e}"
                        checked += 1
        assert checked > 1000
        _report(4, f"{checked} coordinates over 50 configs match central differences; "
                   f"worst relative error {worst_rel:.2e}")


class TestCriterion5MemoryBankSemantics:
    def test_fifo_oracle_and_detachment(self):
        rng = np.random.default_rng(55)
        capacity = 23
        bank = MemoryBank(capacity, 4)
        oracle = []
        label = 0
        for _ in range(100):
            size = int(rng.integers(1, 9))
            rows = unit_rows(rng, size, 4)
            labels = np.arange(label, label + size)
            label += size
            bank.push(rows, labels)
            oracle += list(zip(rows, labels))
            oracle = oracle[-capacity:]
            emb, labs = bank_contents(bank)
            np.testing.assert_array_equal(labs, [l for _, l in oracle])
            np.testing.assert_array_equal(emb, np.stack([r for r, _ in oracle]))

        enc = Encoder.init(6, 4, rng=rng)
        x = rng.standard_normal((5, 6))
        labels = rng.integers(0, 3, size=5)
        cfg = LossConfig()
        rows = unit_rows(rng, 6, 4)
        bank_a = MemoryBank(8, 4)
        bank_a.push(rows, np.arange(6) % 3)
        loss_a, grads_a, _ = encoder_loss_and_grads(enc, x, labels, bank_a, cfg)
        perturbed = rows.copy()
        perturbed[2] = unit_rows(rng, 1, 4)[0]
        bank_b = MemoryBank(8, 4)
        bank_b.push(perturbed, np.arange(6) % 3)
        loss_b, grads_b, _ = encoder_loss_and_grads(enc, x, labels, bank_b, cfg)
        assert loss_a != loss_b

        h = 1e-5
        for which, bank in (("original", bank_a), ("perturbed", bank_b)):
            _, grads, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
            for p, analytic in zip(enc.params(), grads):
                flat_p, flat_a = p.reshape(-1), analytic.reshape(-1)
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up, _, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
                    flat_p[i] = orig - h
                    down, _, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
                    flat_p[i] = orig
                    fd = (up - down) / (2.0 * h)
                    if abs(flat_a[i]) > 1e-8:
                        rel = abs(flat_a[i] - fd) / max(abs(flat_a[i]), abs(fd))
                        assert rel < 1e-4, f"{which} bank: rel error {rel:.2e}"
        _report(5, "100 interleaved ops match the ring-buffer oracle; bank "
                   "perturbation changes the loss but batch gradients stay exact")


class TestCriterion6MetricCorrectness:
    @staticmethod
    def _ap_oracle(entries, gt_pairs, positives):
        total = 0.0
        for r in range(1, len(entries) + 1):
            q, ref, _ = entries[r - 1]
            if (q, ref) in gt_pairs:
                tp = sum(1 for (q2, r2, _) in entries[:r] if (q2, r2) in gt_pairs)
                total += tp / r
        return total / positives

    @staticmethod
    def _recall_oracle(entries, gt_pairs, positives, p):
        best = 0.0
        for r in range(1, len(entries) + 1):
            tp = sum(1 for (q2, r2, _) in entries[:r] if (q2, r2) in gt_pairs)
            if tp / r >= p:
                best = max(best, tp / positives)
        return best

    def test_oracles_hand_cases_and_invariance(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            n = int(rng.integers(1, 501))
            entries = [(f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(n)]
            ranked = RankedMatches.from_candidates(entries)
            gt_pairs = {(q, r) for q, r, _ in entries if rng.random() < 0.3}
            if not gt_pairs:
                gt_pairs = {entries[0][:2]}
            gt = GroundTruth.from_pairs(gt_pairs)
            np.testing.assert_allclose(
                micro_ap(ranked, gt),
                self._ap_oracle(ranked.entries, gt_pairs, len(gt_pairs)),
                atol=1e-12,
            )
            for p in (0.5, 0.9):
                np.testing.assert_allclose(
                    recall_at_precision(ranked, gt, p),
                    self._recall_oracle(ranked.entries, gt_pairs, len(gt_pairs), p),
                    atol=1e-12,
                )

        # Hand cases.
        entries = [("q0", "r0", 3.0), ("q1", "r1", 2.0), ("q2", "r2", 1.0)]
        ranked = RankedMatches.from_candidates(entries)
        gt = GroundTruth.from_pairs([("q0", "r0"), ("q2", "r2")])
        np.testing.assert_allclose(micro_ap(ranked, gt), (1.0 + 2.0 / 3.0) / 2.0, atol=1e-9)

        nine_tps = [(f"q{i}", f"r{i}", 10.0 - i) for i in range(10)]
        ranked = RankedMatches.from_candidates(nine_tps)
        gt = GroundTruth.from_pairs([(f"q{i}", f"r{i}") for i in range(9)])
        assert recall_at_precision(ranked, gt, 0.9) == 1.0

        ranked = RankedMatches.from_candidates([("qa", "ra", 2.0), ("qb", "rb", 1.0)])
        gt = GroundTruth.from_pairs([("qb", "rb")])
        assert recall_at_precision(ranked, gt, 0.9) == 0.0

        # Monotone transform invariance.
        entries = [(f"q{i}", f"r{i}", float(rng.standard_normal())) for i in range(200)]
        gt_pairs = {(q, r) for q, r, _ in entries if rng.random() < 0.25}
        gt = GroundTruth.from_pairs(gt_pairs)
        base = RankedMatches.from_candidates(entries)
        for transform in (lambda s: 10.0 * s - 3.0, np.exp):
            mapped = RankedMatches.from_candidates(
                [(q, r, float(transform(s))) for q, r, s in entries]
            )
            assert micro_ap(mapped, gt) == micro_ap(base, gt)
            assert recall_at_precision(mapped, gt, 0.9) == recall_at_precision(base, gt, 0.9)
        _report(6, "100 counting-oracle instances, hand cases, and monotone "
                   "transform invariance all match")


class TestCriterion7TrendReproduction:
    def test_staged_micro_ap_nondecreasing_and_postprocess_gain(self, trend_reports):
        reports, elapsed = trend_reports
        nondecreasing = 0
        improved = 0
        for report in reports:
            stage_aps = [r["micro_ap"] for r in report["rows"] if not r["post_process"]]
            post_ap = report["rows"][-1]["micro_ap"]
            if all(a <= b + 1e-12 for a, b in zip(stage_aps, stage_aps[1:])):
                nondecreasing += 1
            if post_ap > stage_aps[-1]:
                improved += 1
        assert nondecreasing >= 4, f"non-decreasing in only {nondecreasing}/5 seeds"
        assert improved >= 4, f"post-process improved in only {improved}/5 seeds"
        assert elapsed < 300.0, f"5-seed trend run took {elapsed:.0f}s"
        _report(7, f"micro-AP non-decreasing in {nondecreasing}/5 seeds, post-process "
                   f"improves in {improved}/5, 5-seed run in {elapsed:.0f}s (< 300s)")


class TestCriterion8NegativeSwap:
    def test_pool_swap_changes_less_than_gain_every_seed(self, swap_reports):
        for report in swap_reports:
            gain = report["postprocess_gain_micro_ap"]
            delta = abs(report["pool_delta_micro_ap"])
            assert delta < gain, (
                f"seed {report['seed']}: |pool delta| {delta:.4f} "
                f">= post-process gain {gain:.4f}"
            )
            base = report["baseline"]["micro_ap"]
            assert report["training_pool"]["micro_ap"] > base
            assert report["twin_pool"]["micro_ap"] > base
        deltas = [abs(r["pool_delta_micro_ap"]) for r in swap_reports]
        gains = [r["postprocess_gain_micro_ap"] for r in swap_reports]
        _report(8, f"|pool delta| < gain in 5/5 seeds "
                   f"(max delta {max(deltas):.4f}, min gain {min(gains):.4f})")


class TestCriterion9Reproducibility:
    def test_identical_manifests_identical_artifacts(self, tmp_path):
        manifest = RunManifest(
            seed=11, out_dir=str(tmp_path / "run"),
            n_train=128, n_ref=128, n_query=64, d_in=16, encoder_dim=8,
            bank_capacity=256,
            stages=[
                dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16),
                dict(index=2, tier="strong", include_reference_negatives=True,
                     include_gt_positives=True, epochs=1, lr=0.1, batch_size=16),
            ],
        )
        first = reproduce_trend(manifest)
        paths = sorted((tmp_path / "run").rglob("*.*"))
        snapshots = {p: p.read_bytes() for p in paths if p.is_file()}
        second = reproduce_trend(manifest)
        assert first == second
        for p, blob in snapshots.items():
            assert p.read_bytes() == blob, f"{p} changed between identical runs"
        emb_files = [p for p in snapshots if p.suffix == ".emb"]
        assert len(emb_files) >= 7
        _report(9, f"two identical-manifest runs: byte-identical report and "
                   f"{len(emb_files)} bit-identical embedding files")
