"""Tests of the benchmark itself: probes, checks, inputs and BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest cdbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import probes
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]

ALL = {"train:Encoder.encode_set", "search:topk", "search:topk_batch", "postprocess:subtract_negatives",
       "postprocess:subtract_negatives_batch", "metrics:RankedMatches.from_candidates", "metrics:micro_ap",
       "metrics:recall_at_precision", "cli:main"}
TRAINING = {"datagen:gen_world", "datagen:augment_vector", "train:contrastive_loss", "train:MemoryBank.contents",
            "train:MemoryBank.push", "train:run_stage", "train:encoder_loss_and_grads", "train:sgd_momentum_step",
            "pipeline:train_and_embed", "metrics:build_candidates"}
# Probe targets that must fire on each workload at this commit.
FIRES = {
    "trend": ALL | TRAINING | {"embedding:write_embeddings", "pipeline:reproduce_trend"},
    "match": ALL | {"embedding:read_embeddings", "embedding:write_embeddings", "metrics:read_matches_tsv",
                    "metrics:write_matches_tsv", "metrics:read_gt_csv"},
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """One traced run of every workload: (probe snapshot, layer metrics)."""
    out = {}
    for workload in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        inv = run.Invocation(workload, 3, work)
        _, _, code = inv.set_up()
        assert code == 0
        wall, code, usage, _ = inv.run(work / "trace.json")
        assert code == 0
        snapshot = json.loads((work / "trace.json").read_text())
        quality, errors = run.check_outputs(workload, work)
        assert errors == []
        facts = {"traced": wall, "untraced": wall, "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt}
        out[workload] = snapshot, probes.layer_metrics(snapshot, {**facts, **quality})
    return out


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_every_probe_fires_where_expected(traces, workload):
    snapshot, metrics = traces[workload]
    assert snapshot["missing"] == [] and snapshot["errors"] == []
    fired = {key for key, calls in snapshot["calls"].items() if calls > 0}
    assert FIRES[workload] <= fired, FIRES[workload] - fired
    for name in ("train.encode_rows", "search.scores", "postprocess.targets", "metrics.candidates",
                 "embedding.bytes"):
        assert metrics[name] > 0, name


def test_match_spends_no_training_time(traces):
    _, metrics = traces["match"]
    for name, value in metrics.items():
        if name.startswith(("train.", "datagen.")) and name not in ("train.encode_s", "train.encode_rows"):
            assert value == 0, name


def test_counts_repeat_exactly(tmp_path):
    inv = run.Invocation("trend", 5, tmp_path)
    inv.set_up()
    counts = []
    for _ in range(2):
        _, code, _, _ = inv.run(tmp_path / "trace.json")
        assert code == 0
        counts.append(json.loads((tmp_path / "trace.json").read_text())["counts"])
    assert counts[0] == counts[1]


def test_missing_target_records_nothing(monkeypatch):
    import copydet.cli  # noqa: F401  (loads every module the probes patch)
    import copydet.search

    monkeypatch.setattr(probes, "PROBES", [("search:gone", None), ("search:Neighbor.gone", None)])
    tracer = probes.Tracer()
    tracer.install()
    assert tracer.missing == ["search:gone", "search:Neighbor.gone"]
    assert tracer.snapshot()["calls"] == {}
    facts = dict.fromkeys(("traced", "untraced", "sys_s", "minor_faults", "micro_ap", "recall_at_p90"), 1.0)
    assert probes.layer_metrics(tracer.snapshot(), facts)["search.topk_calls"] == 0
    assert hasattr(copydet.search, "topk")


def test_oracle_agrees_with_program_on_tied_scores(tmp_path):
    from copydet import EmbeddingSet, GroundTruth, build_candidates, micro_ap, recall_at_precision
    from copydet.embedding import write_embeddings

    rng = np.random.default_rng(0)
    # Few distinct directions, so many scores tie exactly.
    basis = rng.standard_normal((4, 8))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    refs = EmbeddingSet(tuple(f"R{i}" for i in range(40)), basis[rng.integers(0, 4, 40)])
    queries = EmbeddingSet(tuple(f"Q{i}" for i in range(12)), basis[rng.integers(0, 4, 12)])
    pairs = [(f"Q{i}", f"R{j}") for i, j in zip(range(12), rng.permutation(40)[:12])]
    write_embeddings(queries, tmp_path / "q.emb")
    write_embeddings(refs, tmp_path / "r.emb")
    (tmp_path / "gt.csv").write_text("query_id,reference_id\n" + "".join(f"{q},{r}\n" for q, r in pairs))

    ranked = build_candidates(queries, refs, 10)
    gt = GroundTruth.from_pairs(pairs)
    oracle = checks.oracle_quality(tmp_path / "q.emb", tmp_path / "r.emb", tmp_path / "gt.csv")
    assert oracle["micro_ap"] == pytest.approx(micro_ap(ranked, gt), abs=1e-12)
    assert oracle["recall_at_p90"] == pytest.approx(recall_at_precision(ranked, gt, 0.9), abs=1e-12)


def test_match_inputs_are_seeded_and_readable(tmp_path):
    from copydet import Encoder, read_embeddings, read_gt_csv

    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workloads.write_inputs("match", seed, tmp_path / name)
    digests = {name: checks.digest_tree(tmp_path / name) for name in "abc"}
    assert digests["a"] == digests["b"] != digests["c"]
    queries = read_embeddings(tmp_path / "a" / "queries.emb")
    assert queries.count == workloads.MATCH_N_QUERY and not queries.unit_norm
    assert read_gt_csv(tmp_path / "a" / "gt.csv").positives == workloads.MATCH_N_QUERY // 4
    assert Encoder.load(tmp_path / "a" / "encoder.bin").d_out == workloads.MATCH_DIM


def test_unit_norm_check_flags_a_bad_row(tmp_path):
    import struct

    rows = np.eye(3, dtype="<f4")
    rows[1] *= 1.001
    (tmp_path / "x.emb").write_bytes(struct.pack("<4sIIQ", b"ISCE", 1, 3, 3) + rows.tobytes())
    (tmp_path / "x.ids").write_text("a\nb\nc\n")
    assert len(checks.unit_norm_errors(tmp_path)) == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in probes.LAYER_METRICS
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_cpu_s", "peak_rss_mb"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "cdbench", tmp_path / "cdbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "cdbench/run.py", "--workload", "trend", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
