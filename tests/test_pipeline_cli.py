import argparse
import copy
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from copydet import (
    EmbeddingSet,
    Encoder,
    LossConfig,
    NegSubConfig,
    RunManifest,
    StageConfig,
    WorldConfig,
    build_candidates,
    load_world,
    micro_ap,
    negative_swap,
    read_embeddings,
    read_gt_csv,
    read_matches_tsv,
    reproduce_trend,
    subtract_negatives_batch,
    write_embeddings,
)
from copydet.cli import _add_run_flags, _manifest_from_args, build_parser, main
from copydet.pipeline import POSTPROCESS_TARGETS, _postprocess_eval, train_and_embed, train_encoder


TINY_WORLD = WorldConfig(n_train=64, n_ref=64, n_query=32, d_in=8)


def tiny_manifest(out_dir, seed=3, **kw):
    defaults = dict(
        world=TINY_WORLD,
        encoder_dim=4,
        bank_capacity=128,
        stages=[
            dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16),
            dict(
                index=2, tier="strong", include_reference_negatives=True,
                include_gt_positives=True, epochs=1, lr=0.1, batch_size=16,
                ref_per_batch=4, gt_per_batch=2,
            ),
        ],
    )
    defaults.update(kw)
    return RunManifest(seed=seed, out_dir=str(out_dir), **defaults)


class TestManifest:
    def test_hash_stable_and_sensitive(self, tmp_path):
        a = tiny_manifest(tmp_path)
        b = tiny_manifest(tmp_path)
        assert a.hash() == b.hash()
        c = tiny_manifest(tmp_path, seed=4)
        assert a.hash() != c.hash()

    def test_json_round_trip(self, tmp_path):
        m = tiny_manifest(tmp_path)
        back = RunManifest.from_dict(json.loads(m.to_json()))
        assert back.hash() == m.hash()
        assert all(isinstance(s, StageConfig) for s in back.stages)

    def test_unknown_and_missing_fields_rejected(self, tmp_path):
        d = json.loads(tiny_manifest(tmp_path).to_json())
        with pytest.raises(ValueError, match=r"unknown manifest field\(s\): bogus, extra"):
            RunManifest.from_dict({**d, "bogus": 1, "extra": 2})
        with pytest.raises(ValueError, match=r"^unknown world field\(s\): bogus$"):
            RunManifest.from_dict({**d, "world": {**d["world"], "bogus": 1}})
        # A manifest.json written while the settings were flat fails loudly.
        flat = {name: value for name, value in d.items() if name not in ("world", "loss", "negsub")}
        flat.update(n_train=64, n_ref=64, n_query=32, d_in=8, copy_rate=0.25, world_tier="strong",
                    pos_margin=0.0, neg_margin=1.0, negsub_n=1, negsub_k=10, negsub_beta=0.35)
        with pytest.raises(ValueError, match=(
            r"^unknown manifest field\(s\): copy_rate, d_in, n_query, n_ref, n_train, neg_margin, "
            r"negsub_beta, negsub_k, negsub_n, pos_margin, world_tier$"
        )):
            RunManifest.from_dict(flat)
        del d["seed"]
        with pytest.raises(ValueError, match=r"missing manifest field\(s\): seed"):
            RunManifest.from_dict(d)
        with pytest.raises(ValueError, match=r"missing stage field\(s\): tier"):
            StageConfig.from_dict({"index": 1})
        with pytest.raises(ValueError, match="stage must be a JSON object"):
            StageConfig.from_dict([1, "weak"])

    def test_mistyped_manifest_fields_rejected(self, tmp_path):
        d = json.loads(tiny_manifest(tmp_path).to_json())
        for field, value, message in [
            ("seed", "3", "manifest field 'seed' must be int, got str"),
            ("encoder_dim", True, "manifest field 'encoder_dim' must be int, got bool"),
            ("out_dir", 7, "manifest field 'out_dir' must be str, got int"),
            ("stages", {}, "manifest field 'stages' must be list, got dict"),
            ("world", {**d["world"], "n_train": True}, "world field 'n_train' must be int, got bool"),
            ("negsub", [1, 10, 0.35], "negsub must be a JSON object, got list"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                RunManifest.from_dict({**d, field: value})
        bad_stage = {**d["stages"][0], "lr": "0.1"}
        with pytest.raises(ValueError, match="^stage field 'lr' must be float, got str$"):
            RunManifest.from_dict({**d, "stages": [bad_stage]})
        # A float field takes an int; the value is kept as given.
        assert RunManifest.from_dict({**d, "world": {**d["world"], "copy_rate": 1}}).world.copy_rate == 1

    @pytest.mark.parametrize("margin", [float("inf"), float("nan")])
    def test_non_finite_neg_margin_rejected(self, margin):
        with pytest.raises(ValueError, match=f"^neg_margin must be >= 0, got {margin}$"):
            RunManifest.from_dict({"seed": 0, "out_dir": "", "loss": {"neg_margin": margin}})

    def test_bad_targets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="postprocess_targets"):
            tiny_manifest(tmp_path, postprocess_targets="everything")

    def test_bad_world_tier_rejected(self, tmp_path):
        d = json.loads(tiny_manifest(tmp_path).to_json())
        with pytest.raises(ValueError, match=r"^unknown tier 'bogus', expected one of \(.*\)$"):
            RunManifest.from_dict({**d, "world": {**d["world"], "tier": "bogus"}})

    def test_world_defaults_are_world_config_defaults(self):
        manifest = RunManifest(seed=0, out_dir="")
        assert (manifest.world, manifest.loss, manifest.negsub) == (WorldConfig(), LossConfig(), NegSubConfig())


class TestReproduceTrend:
    def test_artifacts_and_report_shape(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        report = reproduce_trend(manifest)
        assert report["manifest_hash"] == manifest.hash()
        assert [r["stage"] for r in report["rows"]] == [1, 2, "post"]
        assert report["rows"][-1]["post_process"] is True
        for name in (
            "world/training.emb", "world/gt.csv", "encoder.bin",
            "embeddings/queries.emb", "embeddings/queries_post.emb",
            "embeddings/reference_post.emb",
            "manifest.json", "report.json", "report.txt",
        ):
            assert (tmp_path / "run" / name).exists(), name

    def test_artifacts_reload_through_module_loaders(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        reproduce_trend(manifest)
        enc = Encoder.load(tmp_path / "run" / "encoder.bin")
        assert enc.d_in == 8 and enc.d_out == 4
        post = read_embeddings(tmp_path / "run" / "embeddings" / "queries_post.emb")
        assert post.unit_norm and post.count == 32
        raw = read_embeddings(tmp_path / "run" / "world" / "queries.emb")
        assert not raw.unit_norm

    def test_byte_identical_reports_across_runs(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        reproduce_trend(manifest)
        first_report = (tmp_path / "run" / "report.json").read_bytes()
        first_emb = (tmp_path / "run" / "embeddings" / "queries_post.emb").read_bytes()
        reproduce_trend(manifest)
        assert (tmp_path / "run" / "report.json").read_bytes() == first_report
        assert (tmp_path / "run" / "embeddings" / "queries_post.emb").read_bytes() == first_emb

    def test_exact_duplicate_world_scores_perfectly(self, tmp_path):
        # Untouched-copy world: an untrained encoder already matches every
        # query to its source exactly, before and after the post-process.
        manifest = tiny_manifest(
            tmp_path / "run",
            world=replace(TINY_WORLD, copy_rate=1.0, tier="none"),
            stages=[dict(index=1, tier="none", epochs=0)],
        )
        report = reproduce_trend(manifest)
        assert report["rows"][0]["micro_ap"] == 1.0
        assert report["rows"][-1]["micro_ap"] == 1.0

    @pytest.mark.parametrize("targets", POSTPROCESS_TARGETS)
    def test_post_files_hold_what_the_post_row_ranked(self, tmp_path, capsys, targets):
        manifest = tiny_manifest(tmp_path / "run", postprocess_targets=targets)
        report = reproduce_trend(manifest)
        emb = tmp_path / "run" / "embeddings"
        ranked = build_candidates(
            read_embeddings(emb / "queries_post.emb"), read_embeddings(emb / "reference_post.emb"),
            manifest.per_query_k,
        )
        gt_path = tmp_path / "run" / "world" / "gt.csv"
        assert micro_ap(ranked, read_gt_csv(gt_path)) == report["rows"][-1]["micro_ap"]
        # The CLI's search and eval on the same files print the post row's record.
        matches = tmp_path / "matches.tsv"
        assert main([
            "search", "--queries", str(emb / "queries_post.emb"), "--db", str(emb / "reference_post.emb"),
            "--k", str(manifest.per_query_k), "--out", str(matches),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--gt", str(gt_path), "--pred", str(matches)]) == 0
        printed = json.loads(capsys.readouterr().out)
        for key in ("micro_ap", "recall_at_p90"):
            assert printed[key] == report["rows"][-1][key]
        # An untargeted side is ranked, and written, unprocessed.
        for side, target in [("queries", "queries"), ("reference", "references")]:
            same = (emb / f"{side}_post.emb").read_bytes() == (emb / f"{side}.emb").read_bytes()
            assert same == (targets not in (target, "both"))

    def test_text_table_mentions_every_row(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        reproduce_trend(manifest)
        table = (tmp_path / "run" / "report.txt").read_text()
        assert "post" in table and "micro_ap" in table
        assert len(table.strip().splitlines()) == 2 + 3  # header, rule, 3 rows


class TestNegativeSwap:
    def test_identical_pools_zero_difference(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        run = train_and_embed(manifest)
        record_a, _, _ = _postprocess_eval(run, run.train_emb, manifest)
        record_b, _, _ = _postprocess_eval(run, run.train_emb, manifest)
        assert record_a == record_b

    def test_report_fields(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        report = negative_swap(manifest)
        for key in ("baseline", "training_pool", "twin_pool",
                    "pool_delta_micro_ap", "postprocess_gain_micro_ap"):
            assert key in report
        assert report["pool_delta_micro_ap"] == (
            report["training_pool"]["micro_ap"] - report["twin_pool"]["micro_ap"]
        )


# Settings that each command checks before it draws or loads a world,
# with the message each exits 1 with.
_INVALID_SETTINGS = [
    (["reproduce-trend", "--beta", "-1"], "beta must be >= 0, got -1.0"),
    (["reproduce-trend", "--beta", "nan"], "beta must be >= 0, got nan"),
    (["negative-swap", "--beta", "inf"], "beta must be >= 0, got inf"),
    (["negative-swap", "--k", "0"], "k must be >= 1, got 0"),
    (["reproduce-trend", "--n", "-1"], "n must be >= 0, got -1"),
    (["reproduce-trend", "--per-query-k", "0"], "per_query_k must be >= 1, got 0"),
    (["negative-swap", "--encoder-dim", "0"], "encoder_dim must be >= 1, got 0"),
    (["reproduce-trend", "--n-train", "0"], "n_train must be >= 1, got 0"),
    (["gen-data", "--n-train", "0"], "n_train must be >= 1, got 0"),
    (["gen-data", "--n-query", "-2"], "n_query must be >= 1, got -2"),
    (["gen-data", "--dim", "0"], "d_in must be >= 1, got 0"),
    (["gen-data", "--n-ref", "0"], "n_ref must be >= 1, got 0"),
    (["gen-data", "--copy-rate", "nan"], "copy_rate must be in [0, 1], got nan"),
    (["reproduce-trend", "--dim", "0"], "d_in must be >= 1, got 0"),
    (["reproduce-trend", "--copy-rate", "1.5"], "copy_rate must be in [0, 1], got 1.5"),
    (["train", "--dim", "0"], "encoder_dim must be >= 1, got 0"),
    (["train", "--hidden", "-3"], "encoder_hidden must be >= 0, got -3"),
    (["reproduce-trend", "--bank-capacity", "-1"], "bank_capacity must be >= 0, got -1"),
    (["reproduce-trend", "--copy-rate", "0"],
     "copy_rate 0.0 of n_query 1024 gives 0 copy queries; a run needs at least 1"),
    (["negative-swap", "--n-query", "32", "--copy-rate", "0.01"],
     "copy_rate 0.01 of n_query 32 gives 0 copy queries; a run needs at least 1"),
    (["reproduce-trend", "--n-ref", "8", "--n-query", "64"],
     "copy_rate 0.25 of n_query 64 gives 16 copy queries, more than n_ref 8"),
    (["gen-data", "--n-ref", "4", "--n-query", "8", "--copy-rate", "1"],
     "copy_rate 1.0 of n_query 8 gives 8 copy queries, more than n_ref 4"),
]


# Reader error paths: files written into a directory that also holds a
# 64/64/32 dim-8 world in world/, the argv run there, its exit code and
# its whole stderr after "copydet: ".
_ISCW_TRAILING = b"ISCW" + struct.pack("<IIII", 1, 1, 8, 4) + bytes(4 * (8 * 4 + 4)) + bytes(4)
_ISCW_NAN = b"ISCW" + struct.pack("<IIII", 1, 1, 8, 4) + struct.pack("<f", float("nan")) + bytes(4 * (8 * 4 + 3))
_EVAL_TSV = ["eval", "--gt", "world/gt.csv", "--pred", "m.tsv"]
_TRAIN = ["train", "--world", "world", "--seed", "7", "--out", "e.bin"]
_READER_ERRORS = [
    pytest.param({"m.tsv": b"q1\tr1\t0.5\nq1\tr2\n"}, _EVAL_TSV, 2,
                 "m.tsv:2: expected 3 tab-separated fields", id="tsv-two-fields"),
    pytest.param({"m.tsv": b"q1\tr1\tabc\n"}, _EVAL_TSV, 2,
                 "m.tsv:1: bad score 'abc'", id="tsv-bad-score"),
    pytest.param({"m.tsv": b"q1\tr1\t0.5\nq1\tr1\t0.25\n"}, _EVAL_TSV, 2,
                 "m.tsv: duplicate candidate pair ('q1', 'r1')", id="tsv-repeated-pair"),
    pytest.param({"m.tsv": b"q1\tr1\t0.5\xff\n"}, _EVAL_TSV, 2,
                 "m.tsv: not UTF-8 text (invalid start byte at byte 9)", id="tsv-not-utf8"),
    pytest.param({"gt.csv": b"q,r\nq1,r1\n", "m.tsv": b""},
                 ["eval", "--gt", "gt.csv", "--pred", "m.tsv"], 2,
                 "gt.csv: unexpected header ['q', 'r']", id="gt-header"),
    pytest.param({"gt.csv": b"query_id,reference_id\nQ\xff,R1\n", "m.tsv": b""},
                 ["eval", "--gt", "gt.csv", "--pred", "m.tsv"], 2,
                 "gt.csv: not UTF-8 text (invalid start byte at byte 23)", id="gt-not-utf8"),
    pytest.param({"world/gt.csv": b"query_id,reference_id\nQ999999,R000001\n"}, _TRAIN, 2,
                 "world/gt.csv: pair ('Q999999', 'R000001') references unknown ids",
                 id="world-gt-unknown-id"),
    pytest.param({"s.json": b'{"index": 1}'}, [*_TRAIN, "--stages", "s.json"], 1,
                 "s.json: stage file must hold a JSON list", id="stages-object"),
    pytest.param({"s.json": b"nope\n"}, [*_TRAIN, "--stages", "s.json"], 2,
                 "s.json: not JSON (Expecting value: line 1 column 1 (char 0))", id="stages-not-json"),
    pytest.param({"enc.bin": _ISCW_TRAILING},
                 ["embed", "--encoder", "enc.bin", "--in", "world/queries.emb", "--out", "o.emb"], 2,
                 "enc.bin: 4 trailing bytes", id="iscw-trailing-bytes"),
    pytest.param({"z.emb": b"ISCE" + struct.pack("<IIQ", 1, 0, 0)},
                 ["search", "--queries", "z.emb", "--db", "z.emb"], 2,
                 "z.emb: header dim 0 is invalid", id="emb-dim-0"),
    pytest.param({"d.emb": b"ISCE" + struct.pack("<IIQ", 1, 4, 2) + bytes(2 * 8 * 4)},
                 ["search", "--queries", "d.emb", "--db", "d.emb"], 2,
                 "d.emb: header dim 4 disagrees with payload row size 32 bytes", id="emb-dim-mismatch"),
    pytest.param({"gt.csv": b"query_id,reference_id\n" + b"q" * 131073 + b",r1\n", "m.tsv": b""},
                 ["eval", "--gt", "gt.csv", "--pred", "m.tsv"], 2,
                 "gt.csv:2: field larger than field limit (131072)", id="gt-field-too-long"),
    pytest.param({"enc.bin": _ISCW_NAN},
                 ["embed", "--encoder", "enc.bin", "--in", "world/queries.emb", "--out", "o.emb"], 2,
                 "enc.bin: layer 1 holds non-finite weights", id="iscw-nan-weight"),
    pytest.param({"s.json": b"[" * 100000}, [*_TRAIN, "--stages", "s.json"], 2,
                 "s.json: not JSON (maximum recursion depth exceeded while decoding a JSON array "
                 "from a unicode string)", id="stages-too-deep"),
]


class TestCli:
    def _gen(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--seed", "7", "--out-dir", str(tmp_path / "world"),
            "--n-train", "64", "--n-ref", "64", "--n-query", "32",
            "--dim", "8", "--copy-rate", "0.5", "--tier", "strong",
        ])
        assert rc == 0
        capsys.readouterr()

    def test_gen_data_writes_raw_world(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        blob = (world / "training.emb").read_bytes()
        assert blob[:4] == b"ISCE" and blob[4] == 2
        header = (world / "gt.csv").read_text().splitlines()[0]
        assert header == "query_id,reference_id"
        for stem in ("training", "reference", "queries"):
            assert (world / f"{stem}.emb").exists()
            assert (world / f"{stem}.ids").exists()

    def test_train_saves_the_encoder_of_train_and_embed(self, tmp_path, capsys):
        # CLI train and the pipeline share one stage loop: the same seed,
        # sizes and schedule give the same checkpoint bytes and losses.
        self._gen(tmp_path, capsys)
        manifest = tiny_manifest(tmp_path / "run", seed=7, world=replace(TINY_WORLD, copy_rate=0.5))
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([s.to_dict() for s in manifest.stages]))
        rc = main([
            "train", "--world", str(tmp_path / "world"), "--stages", str(stages),
            "--seed", "7", "--out", str(tmp_path / "cli.bin"), "--dim", "4",
            "--bank-capacity", "128",
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        run = train_and_embed(manifest)
        run.encoder.save(tmp_path / "pipeline.bin")
        assert (tmp_path / "cli.bin").read_bytes() == (tmp_path / "pipeline.bin").read_bytes()
        assert printed["out"] == str(tmp_path / "cli.bin")
        assert [(s["stage"], s["tier"], s["epochs"]) for s in printed["stages"]] == [
            (s.index, s.tier, s.epochs) for s in manifest.stages
        ]
        assert [s["mean_loss"] for s in printed["stages"]] == [
            r["mean_loss"] for r in run.stage_rows
        ]

    def test_gen_data_allows_a_world_without_copies(self, tmp_path, capsys):
        argv = ["gen-data", "--seed", "7", "--out-dir", str(tmp_path / "world"),
                "--n-train", "8", "--n-ref", "8", "--n-query", "4", "--dim", "4", "--copy-rate", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["positives"] == 0
        assert (tmp_path / "world" / "gt.csv").read_text() == "query_id,reference_id\n"

    def test_train_does_not_depend_on_gt_row_order(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world, flipped = tmp_path / "world", tmp_path / "flipped"
        flipped.mkdir()
        for f in world.iterdir():
            (flipped / f.name).write_bytes(f.read_bytes())
        header, *rows = (world / "gt.csv").read_text().splitlines()
        (flipped / "gt.csv").write_text("\n".join([header, *reversed(rows)]) + "\n")
        # gt_per_batch 2 of 16 pairs: each batch draws which pairs join it.
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            dict(index=1, tier="weak", include_gt_positives=True, epochs=1, lr=0.3,
                 batch_size=16, gt_per_batch=2),
        ]))
        for name in ("world", "flipped"):
            argv = ["train", "--world", str(tmp_path / name), "--stages", str(stages),
                    "--seed", "7", "--out", str(tmp_path / f"{name}.bin"), "--dim", "4"]
            assert main(argv) == 0
        assert (tmp_path / "world.bin").read_bytes() == (tmp_path / "flipped.bin").read_bytes()

    @pytest.mark.parametrize("d_in, d_out", [(8, 0), (0, 4)])
    def test_embed_zero_width_layer_exit_2(self, tmp_path, capsys, d_in, d_out):
        path = tmp_path / "enc.bin"
        path.write_bytes(
            b"ISCW" + struct.pack("<IIII", 1, 1, d_in, d_out) + bytes(4 * (d_in * d_out + d_out))
        )
        write_embeddings(EmbeddingSet(("a",), np.ones((1, 8)), unit_norm=False), tmp_path / "raw.emb")
        rc = main(["embed", "--encoder", str(path), "--in", str(tmp_path / "raw.emb"),
                   "--out", str(tmp_path / "out.emb")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"copydet: {path}: layer 1 is {d_in} x {d_out}")
        assert not (tmp_path / "out.emb").exists()

    def test_embed_dim_mismatch_exit_1(self, tmp_path, capsys):
        Encoder.init(8, 4).save(tmp_path / "enc.bin")
        write_embeddings(EmbeddingSet(("a", "b"), np.ones((2, 16)), unit_norm=False), tmp_path / "raw.emb")
        rc = main(["embed", "--encoder", str(tmp_path / "enc.bin"), "--in", str(tmp_path / "raw.emb"),
                   "--out", str(tmp_path / "out.emb")])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: encoder takes 8-dim input, got 16-dim rows\n"
        assert not (tmp_path / "out.emb").exists()

    def test_embed_zero_output_names_the_input_id(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        path = tmp_path / "enc.bin"
        path.write_bytes(b"ISCW" + struct.pack("<IIII", 1, 1, 8, 2) + bytes(4 * (8 * 2 + 2)))
        rc = main(["embed", "--encoder", str(path), "--in", str(tmp_path / "world" / "queries.emb"),
                   "--out", str(tmp_path / "out.emb")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "copydet: descriptor 'Q000000' has norm 0.000e+00, too small to normalize\n"
        )
        assert not (tmp_path / "out.emb").exists()

    def test_full_chain_train_embed_search_eval(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = str(tmp_path / "world")
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16),
        ]))
        rc = main([
            "train", "--world", world, "--stages", str(stages),
            "--seed", "7", "--out", str(tmp_path / "enc.bin"), "--dim", "4",
        ])
        assert rc == 0
        capsys.readouterr()

        for name in ("queries", "reference", "training"):
            rc = main([
                "embed", "--encoder", str(tmp_path / "enc.bin"),
                "--in", f"{world}/{name}.emb", "--out", str(tmp_path / f"{name}.emb"),
            ])
            assert rc == 0

        rc = main([
            "postprocess", "--negatives", str(tmp_path / "training.emb"),
            "--n", "1", "--k", "5", "--beta", "0.35",
            "--in", str(tmp_path / "queries.emb"), "--out", str(tmp_path / "queries_post.emb"),
        ])
        assert rc == 0
        processed = read_embeddings(tmp_path / "queries_post.emb")
        want = subtract_negatives_batch(
            read_embeddings(tmp_path / "queries.emb"),
            read_embeddings(tmp_path / "training.emb"),
            NegSubConfig(n=1, k=5, beta=0.35),
        )
        assert processed.matrix.tobytes() == want.matrix.tobytes()
        # Unset --n, --k and --beta take NegSubConfig's defaults.
        rc = main([
            "postprocess", "--negatives", str(tmp_path / "training.emb"),
            "--in", str(tmp_path / "queries.emb"), "--out", str(tmp_path / "queries_default.emb"),
        ])
        assert rc == 0
        want = subtract_negatives_batch(
            read_embeddings(tmp_path / "queries.emb"), read_embeddings(tmp_path / "training.emb"), NegSubConfig()
        )
        assert read_embeddings(tmp_path / "queries_default.emb").matrix.tobytes() == want.matrix.tobytes()

        rc = main([
            "search", "--queries", str(tmp_path / "queries_post.emb"),
            "--db", str(tmp_path / "reference.emb"), "--k", "5",
            "--out", str(tmp_path / "matches.tsv"),
        ])
        assert rc == 0
        ranked = read_matches_tsv(tmp_path / "matches.tsv")
        assert len(ranked) == 32 * 5

        rc = main([
            "eval", "--gt", f"{world}/gt.csv",
            "--pred", str(tmp_path / "matches.tsv"), "--p", "0.9",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["micro_ap"] <= 1.0
        assert report["positives"] == 16
        assert "recall_at_p90" in report

    @pytest.mark.parametrize(
        "p, key",
        [("0.9", "recall_at_p90"), ("0.95", "recall_at_p95"),
         ("0.905", "recall_at_p90.5"), ("0.999", "recall_at_p99.9")],
    )
    def test_eval_recall_key_names_p(self, tmp_path, capsys, p, key):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        main([
            "search", "--queries", str(world / "queries.emb"),
            "--db", str(world / "reference.emb"), "--out", str(tmp_path / "m.tsv"),
        ])
        assert main(["eval", "--gt", f"{world}/gt.csv", "--pred", str(tmp_path / "m.tsv"), "--p", p]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [k for k in report if k.startswith("recall_at_p")] == [key]

    def test_parser_is_built_once_and_parses_each_call_afresh(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        assert build_parser() is build_parser()
        seen = []
        for argv in (
            ["search", "--queries", str(world / "queries.emb"), "--db", str(world / "reference.emb"),
             "--k", "2", "--out", str(tmp_path / "m.tsv")],
            ["eval", "--gt", f"{world}/gt.csv", "--pred", str(tmp_path / "m.tsv"), "--p", "0.5"],
            ["search", "--queries", str(world / "queries.emb"), "--db", str(world / "reference.emb")],
        ):
            assert main(argv) == 0
            seen.append(vars(build_parser().parse_args(argv)))
        search_k2, evaluate, search = seen
        assert search_k2["k"] == 2 and search["k"] == 10 and search["out"] is None
        assert evaluate["p"] == 0.5 and not {"k", "queries", "db", "out"} & evaluate.keys()
        assert not {"p", "gt", "pred"} & search.keys()
        # The second search's defaults gave 10 hits per query, on stdout.
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 + 32 * 10 and "recall_at_p50" in out[0]

    def test_search_tsv_order(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        rc = main([
            "search", "--queries", str(world / "queries.emb"),
            "--db", str(world / "reference.emb"), "--k", "3",
            "--out", str(tmp_path / "m.tsv"),
        ])
        assert rc == 0
        lines = [l.split("\t") for l in (tmp_path / "m.tsv").read_text().splitlines()]
        assert len(lines) == 32 * 3
        # One global ranking: score descending, then query id, then reference id.
        keys = [(-float(s), q, r) for q, r, s in lines]
        assert keys == sorted(keys)

    def test_search_stdout_default(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        rc = main([
            "search", "--queries", str(world / "queries.emb"),
            "--db", str(world / "reference.emb"), "--k", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 32

    def test_search_tab_in_id_exit_1_writes_nothing(self, tmp_path, capsys):
        ids = EmbeddingSet(("r\t1", "r2"), np.eye(2, dtype=np.float32))
        write_embeddings(ids, tmp_path / "ids.emb")
        rc = main([
            "search", "--queries", str(tmp_path / "ids.emb"), "--db", str(tmp_path / "ids.emb"),
            "--out", str(tmp_path / "m.tsv"),
        ])
        assert rc == 1
        assert "'r\\t1' contains a tab" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("row, message", [
        ("Q000001", "gt.csv:3: expected 2 fields, got 1"),
        ("Q000001,R000001,R000002", "gt.csv:3: expected 2 fields, got 3"),
        (None, "gt.csv:3: duplicate pair"),
    ])
    def test_malformed_gt_exit_2(self, tmp_path, capsys, command, row, message):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        lines = (world / "gt.csv").read_text().splitlines()
        # Header, first pair, then the bad row (None repeats the first pair).
        lines.insert(2, row or lines[1])
        (world / "gt.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "m.tsv").write_text("")
        argv = {
            "train": ["train", "--world", str(world), "--seed", "7", "--out", str(tmp_path / "e.bin")],
            "eval": ["eval", "--gt", str(world / "gt.csv"), "--pred", str(tmp_path / "m.tsv")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("copydet: ") and message in err

    @pytest.mark.parametrize("stem", ["reference", "queries"])
    def test_world_dim_mismatch_exit_2_before_training(self, tmp_path, capsys, monkeypatch, stem):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        world = tmp_path / "world"
        assert main(["gen-data", "--seed", "7", "--out-dir", str(world),
                     "--n-train", "16", "--n-ref", "16", "--n-query", "8", "--dim", "4"]) == 0
        capsys.readouterr()
        path = world / f"{stem}.emb"
        ids = read_embeddings(path).ids
        write_embeddings(EmbeddingSet(ids, np.ones((len(ids), 6)), unit_norm=False), path)
        monkeypatch.setattr("copydet.pipeline.run_stage", unreachable)
        out = tmp_path / "e.bin"
        assert main(["train", "--world", str(world), "--seed", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"copydet: {path}: 6-dim rows, but training.emb has 4-dim rows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("files, argv, code, message", _READER_ERRORS)
    def test_reader_error_exit_code_and_message(
        self, tmp_path, capsys, monkeypatch, files, argv, code, message
    ):
        self._gen(tmp_path, capsys)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        assert capsys.readouterr().err == f"copydet: {message}\n"

    def test_output_in_missing_directory_names_the_output(self, tmp_path, capsys):
        # Not the hidden temporary file beside it; a descriptor file names
        # its .ids sidecar, which is written first.
        self._gen(tmp_path, capsys)
        world, missing = tmp_path / "world", tmp_path / "missing"
        assert main(["search", "--queries", str(world / "queries.emb"),
                     "--db", str(world / "reference.emb"), "--out", str(missing / "m.tsv")]) == 2
        assert capsys.readouterr().err == (
            f"copydet: [Errno 2] No such file or directory: '{missing / 'm.tsv'}'\n"
        )
        Encoder.init(8, 4, rng=np.random.default_rng(0)).save(tmp_path / "e.bin")
        assert main(["embed", "--encoder", str(tmp_path / "e.bin"),
                     "--in", str(world / "queries.emb"), "--out", str(missing / "q.emb")]) == 2
        assert capsys.readouterr().err == (
            f"copydet: [Errno 2] No such file or directory: '{missing / 'q.ids'}'\n"
        )
        assert not missing.exists()

    @pytest.mark.parametrize("command", ["reproduce-trend", "negative-swap"])
    def test_unusable_out_dir_exit_2_before_world(self, tmp_path, capsys, monkeypatch, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr("copydet.pipeline.train_and_embed", unreachable)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "run"
        assert main([command, "--seed", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"copydet: [Errno 20] Not a directory: '{out}'\n"

    def test_train_out_in_missing_directory_exit_2_before_world(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a world was loaded")

        monkeypatch.setattr("copydet.cli.load_world", unreachable)
        out = tmp_path / "missing" / "e.bin"
        assert main(["train", "--world", str(tmp_path / "world"), "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"copydet: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["embed", "--encoder", str(tmp_path / "none.bin"),
                   "--in", str(tmp_path / "none.emb"), "--out", str(tmp_path / "o.emb")])
        assert rc == 2

    def test_corrupt_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"garbage bytes here")
        rc = main(["search", "--queries", str(bad), "--db", str(bad)])
        assert rc == 2

    def test_undecodable_sidecar_exit_2(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        queries = tmp_path / "world" / "queries.emb"
        queries.with_suffix(".ids").write_bytes(b"\xff\xfe\n" * 32)
        rc = main(["search", "--queries", str(queries), "--db", str(queries)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("copydet: ") and "queries.ids: not UTF-8" in err

    def test_validation_error_exit_1(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        # postprocess with beta < 0 is a validation failure
        rc = main([
            "postprocess", "--negatives", str(world / "training.emb"),
            "--beta", "-1", "--in", str(world / "queries.emb"),
            "--out", str(tmp_path / "o.emb"),
        ])
        assert rc == 1

    def _trend_with_stages(self, tmp_path, stages):
        path = tmp_path / "stages.json"
        path.write_text(json.dumps(stages))
        return main([
            "reproduce-trend", "--seed", "5", "--out-dir", str(tmp_path / "run"),
            "--n-train", "64", "--n-ref", "64", "--n-query", "32", "--dim", "8",
            "--encoder-dim", "4", "--bank-capacity", "128", "--stages", str(path),
        ])

    def test_unknown_stage_field_exit_1(self, tmp_path, capsys):
        rc = self._trend_with_stages(tmp_path, [dict(index=1, tier="weak", bogus=1)])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: unknown stage field(s): bogus\n"

    _MISTYPED = [
        ("epochs", "2", "stage field 'epochs' must be int, got str"),
        ("batch_size", 2.5, "stage field 'batch_size' must be int, got float"),
        ("lr", "0.1", "stage field 'lr' must be float, got str"),
        ("epochs", True, "stage field 'epochs' must be int, got bool"),
    ]

    @pytest.mark.parametrize("field, value, message", _MISTYPED)
    def test_mistyped_stage_field_exit_1_trend(self, tmp_path, capsys, field, value, message):
        stage = {**dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16), field: value}
        rc = self._trend_with_stages(tmp_path, [stage])
        assert rc == 1
        assert capsys.readouterr().err == f"copydet: {message}\n"

    @pytest.mark.parametrize("field, value, message", _MISTYPED)
    def test_mistyped_stage_field_exit_1_train(self, tmp_path, capsys, field, value, message):
        self._gen(tmp_path, capsys)
        stages = tmp_path / "stages.json"
        stage = {**dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16), field: value}
        stages.write_text(json.dumps([stage]))
        rc = main([
            "train", "--world", str(tmp_path / "world"), "--stages", str(stages),
            "--seed", "7", "--out", str(tmp_path / "enc.bin"), "--dim", "4",
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"copydet: {message}\n"
        assert not (tmp_path / "enc.bin").exists()

    @pytest.mark.parametrize("field", ["ref_per_batch", "gt_per_batch"])
    def test_negative_per_batch_count_exit_1(self, tmp_path, capsys, field):
        stage = dict(index=1, tier="strong", include_reference_negatives=True,
                     include_gt_positives=True, epochs=1, lr=0.3, batch_size=16, **{field: -1})
        rc = self._trend_with_stages(tmp_path, [stage])
        assert rc == 1
        assert capsys.readouterr().err == f"copydet: stage field {field!r} must be >= 0, got -1\n"

    def test_negative_hidden_width_exit_1(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        rc = main([
            "train", "--world", str(tmp_path / "world"), "--seed", "7",
            "--out", str(tmp_path / "enc.bin"), "--hidden", "-3",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: encoder_hidden must be >= 0, got -3\n"
        assert not (tmp_path / "enc.bin").exists()

    def test_train_defaults_are_the_manifest_defaults(self, tmp_path, capsys):
        self._gen(tmp_path, capsys)
        world = tmp_path / "world"
        argv = ["train", "--world", str(world), "--seed", "7", "--out", str(tmp_path / "cli.bin")]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        encoder, losses = train_encoder(load_world(world), RunManifest(seed=7, out_dir=""))
        encoder.save(tmp_path / "pipeline.bin")
        assert (tmp_path / "cli.bin").read_bytes() == (tmp_path / "pipeline.bin").read_bytes()
        assert printed["stages"] == losses

    @pytest.mark.parametrize("argv, message", _INVALID_SETTINGS, ids=[" ".join(a) for a, _ in _INVALID_SETTINGS])
    def test_invalid_setting_exit_1_before_world(self, tmp_path, capsys, monkeypatch, argv, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a world was drawn or loaded")

        monkeypatch.setattr("copydet.pipeline.gen_world", unreachable)
        monkeypatch.setattr("copydet.cli.load_world", unreachable)
        out = tmp_path / "out"
        if argv[0] == "train":
            argv = argv + ["--world", str(tmp_path / "world"), "--out", str(out)]
        else:
            argv = argv + ["--out-dir", str(out)]
        assert main(argv + ["--seed", "1"]) == 1
        assert capsys.readouterr().err == f"copydet: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "reproduce-trend"])
    def test_overflowing_size_exit_1_before_world(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--seed", "0", "--out-dir", str(out), "--n-query", str(10**400)]) == 1
        assert capsys.readouterr().err == "copydet: int too large to convert to float\n"
        assert not out.exists()

    def test_failed_allocation_exit_1(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB")

        monkeypatch.setattr("copydet.cli.gen_world", out_of_memory)
        assert main(["gen-data", "--seed", "0", "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "copydet: Unable to allocate 2.91 TiB\n"

    def test_nan_momentum_or_lr_rejected_before_world(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr("copydet.pipeline.gen_world", unreachable)
        d = RunManifest(seed=1, out_dir=str(tmp_path / "run")).to_dict()
        with pytest.raises(ValueError, match="^momentum must be >= 0, got nan$"):
            reproduce_trend(RunManifest.from_dict({**d, "momentum": float("nan")}))
        stages = [{**d["stages"][0], "lr": float("nan")}]
        with pytest.raises(ValueError, match="^stage field 'lr' must be >= 0, got nan$"):
            reproduce_trend(RunManifest.from_dict({**d, "stages": stages}))
        assert not (tmp_path / "run").exists()

    def test_nan_stage_lr_exit_1(self, tmp_path, capsys):
        # JSON has no NaN, but Python's reader takes the literal json.dumps writes.
        rc = self._trend_with_stages(tmp_path, [dict(index=1, tier="weak", lr=float("nan"))])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: stage field 'lr' must be >= 0, got nan\n"

    @pytest.mark.parametrize("command", ["gen-data", "negative-swap"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, command):
        rc = main([command, "--seed", "-1", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_train_negative_seed_exit_1_before_world(self, tmp_path, capsys, monkeypatch):
        # _INVALID_SETTINGS appends --seed 1, so the seed has a test of its own.
        def unreachable(*args, **kwargs):
            raise AssertionError("a world was loaded")

        monkeypatch.setattr("copydet.cli.load_world", unreachable)
        out = tmp_path / "encoder.bin"
        rc = main(["train", "--world", str(tmp_path / "world"), "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "copydet: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_non_finite_step_exit_1(self, tmp_path, capsys):
        stage = dict(index=1, tier="weak", epochs=1, lr=1e308, batch_size=16)
        rc = self._trend_with_stages(tmp_path, [stage])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("copydet: stage 1, epoch 1, batch ")
        assert "non-finite" in err and err.count("\n") == 1

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--seed", "1", "--tier", "bogus", "--out-dir", "/tmp/x"])
        assert exc.value.code == 1

    def test_reproduce_trend_stdout_byte_identical(self, tmp_path, capsys):
        argv = [
            "reproduce-trend", "--seed", "5", "--out-dir", str(tmp_path / "run"),
            "--n-train", "64", "--n-ref", "64", "--n-query", "32", "--dim", "8",
            "--encoder-dim", "4", "--bank-capacity", "128",
        ]
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16)]))
        argv += ["--stages", str(stages)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["rows"][-1]["post_process"] is True

    def test_negative_swap_cli(self, tmp_path, capsys):
        argv = [
            "negative-swap", "--seed", "5", "--out-dir", str(tmp_path / "run"),
            "--n-train", "64", "--n-ref", "64", "--n-query", "32", "--dim", "8",
            "--encoder-dim", "4", "--bank-capacity", "128",
        ]
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16)]))
        argv += ["--stages", str(stages)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert "pool_delta_micro_ap" in report
        assert report["command"] == "negative-swap"

    @pytest.mark.parametrize("capacity, code", [(0, 0), (-1, 1)])
    def test_bank_capacity_zero_trains_without_a_bank(self, tmp_path, capsys, capacity, code):
        self._gen(tmp_path, capsys)
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16)]))
        rc = main([
            "train", "--world", str(tmp_path / "world"), "--stages", str(stages),
            "--seed", "7", "--out", str(tmp_path / "enc.bin"), "--dim", "4",
            "--bank-capacity", str(capacity),
        ])
        assert rc == code
        rc = main([
            "reproduce-trend", "--seed", "5", "--out-dir", str(tmp_path / "run"),
            "--n-train", "64", "--n-ref", "64", "--n-query", "32", "--dim", "8",
            "--encoder-dim", "4", "--bank-capacity", str(capacity), "--stages", str(stages),
        ])
        assert rc == code
        if code:
            err = capsys.readouterr().err
            assert err == "copydet: bank_capacity must be >= 0, got -1\n" * 2
        else:
            assert (tmp_path / "enc.bin").exists()
            manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
            assert manifest["bank_capacity"] == 0


# Every run flag but --seed, --out-dir and --stages, with a non-default
# value, the manifest config it sets (None for the manifest itself) and
# the field of that config.
_RUN_FLAGS = [
    ("--n-train", "96", "world", "n_train", 96),
    ("--n-ref", "320", "world", "n_ref", 320),
    ("--n-query", "24", "world", "n_query", 24),
    ("--dim", "12", "world", "d_in", 12),
    ("--copy-rate", "0.5", "world", "copy_rate", 0.5),
    ("--world-tier", "weak", "world", "tier", "weak"),
    ("--encoder-dim", "6", None, "encoder_dim", 6),
    ("--bank-capacity", "0", None, "bank_capacity", 0),
    ("--per-query-k", "3", None, "per_query_k", 3),
    ("--n", "2", "negsub", "n", 2),
    ("--k", "7", "negsub", "k", 7),
    ("--beta", "0.2", "negsub", "beta", 0.2),
    ("--postprocess-targets", "queries", None, "postprocess_targets", "queries"),
]


class TestRunFlags:
    def test_table_names_every_run_flag(self):
        p = argparse.ArgumentParser()
        _add_run_flags(p)
        flags = {flag for action in p._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == (
            {flag for flag, *_ in _RUN_FLAGS} | {"--seed", "--out-dir", "--stages"}
        )

    @pytest.mark.parametrize("command", ["reproduce-trend", "negative-swap"])
    @pytest.mark.parametrize("flag, value, config, field, expected", _RUN_FLAGS)
    def test_flag_sets_its_manifest_field(self, tmp_path, command, flag, value, config, field, expected):
        base = [command, "--seed", "4", "--out-dir", str(tmp_path)]
        manifest = _manifest_from_args(build_parser().parse_args(base + [flag, value]))
        default = RunManifest(seed=4, out_dir=str(tmp_path)).to_dict()
        want = copy.deepcopy(default)
        (want if config is None else want[config])[field] = expected
        assert want != default
        assert manifest.to_dict() == want

    @pytest.mark.parametrize("command", ["reproduce-trend", "negative-swap"])
    def test_stages_flag_sets_the_schedule(self, tmp_path, command):
        stages = [dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16)]
        path = tmp_path / "stages.json"
        path.write_text(json.dumps(stages))
        argv = [command, "--seed", "4", "--out-dir", str(tmp_path), "--stages", str(path)]
        manifest = _manifest_from_args(build_parser().parse_args(argv))
        default = RunManifest(seed=4, out_dir=str(tmp_path))
        assert manifest.stages == [StageConfig(**stages[0])]
        assert manifest.to_dict() == {**default.to_dict(), "stages": [manifest.stages[0].to_dict()]}
