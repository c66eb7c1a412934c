import argparse
import json

import numpy as np
import pytest

from copydet import (
    EmbeddingSet,
    Encoder,
    NegSubConfig,
    RunManifest,
    StageConfig,
    negative_swap,
    read_embeddings,
    read_matches_tsv,
    reproduce_trend,
    subtract_negatives_batch,
    write_embeddings,
)
from copydet.cli import _add_run_flags, _manifest_from_args, build_parser, main
from copydet.pipeline import _postprocess_eval, train_and_embed


def tiny_manifest(out_dir, seed=3, **kw):
    defaults = dict(
        n_train=64,
        n_ref=64,
        n_query=32,
        d_in=8,
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
            ("n_train", True, "manifest field 'n_train' must be int, got bool"),
            ("out_dir", 7, "manifest field 'out_dir' must be str, got int"),
            ("stages", {}, "manifest field 'stages' must be list, got dict"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                RunManifest.from_dict({**d, field: value})
        bad_stage = {**d["stages"][0], "lr": "0.1"}
        with pytest.raises(ValueError, match="^stage field 'lr' must be float, got str$"):
            RunManifest.from_dict({**d, "stages": [bad_stage]})
        # A float field takes an int; the value is kept as given.
        assert RunManifest.from_dict({**d, "copy_rate": 1}).copy_rate == 1

    def test_bad_targets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="postprocess_targets"):
            tiny_manifest(tmp_path, postprocess_targets="everything")


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
            copy_rate=1.0,
            world_tier="none",
            stages=[dict(index=1, tier="none", epochs=0)],
        )
        report = reproduce_trend(manifest)
        assert report["rows"][0]["micro_ap"] == 1.0
        assert report["rows"][-1]["micro_ap"] == 1.0

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
        ap_a, _, _, _ = _postprocess_eval(run, run.train_emb, manifest)
        ap_b, _, _, _ = _postprocess_eval(run, run.train_emb, manifest)
        assert ap_a == ap_b

    def test_report_fields(self, tmp_path):
        manifest = tiny_manifest(tmp_path / "run")
        report = negative_swap(manifest)
        for key in ("baseline", "training_pool", "twin_pool",
                    "pool_delta_micro_ap", "postprocess_gain_micro_ap"):
            assert key in report
        assert report["pool_delta_micro_ap"] == (
            report["training_pool"]["micro_ap"] - report["twin_pool"]["micro_ap"]
        )


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
        manifest = tiny_manifest(tmp_path / "run", seed=7, copy_rate=0.5)
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
        queries = read_embeddings(world / "queries.emb")
        assert [l[0] for l in lines] == [q for q in queries.ids for _ in range(3)]
        for i in range(0, len(lines), 3):
            scores = [float(l[2]) for l in lines[i : i + 3]]
            assert scores == sorted(scores, reverse=True)

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
            assert err == "copydet: capacity must be >= 0, got -1\n" * 2
        else:
            assert (tmp_path / "enc.bin").exists()
            manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
            assert manifest["bank_capacity"] == 0


# Every run flag but --seed, --out-dir and --stages, with a non-default
# value and the manifest field it sets.
_RUN_FLAGS = [
    ("--n-train", "96", "n_train", 96),
    ("--n-ref", "80", "n_ref", 80),
    ("--n-query", "24", "n_query", 24),
    ("--dim", "12", "d_in", 12),
    ("--copy-rate", "0.5", "copy_rate", 0.5),
    ("--world-tier", "weak", "world_tier", "weak"),
    ("--encoder-dim", "6", "encoder_dim", 6),
    ("--bank-capacity", "0", "bank_capacity", 0),
    ("--per-query-k", "3", "per_query_k", 3),
    ("--n", "2", "negsub_n", 2),
    ("--k", "7", "negsub_k", 7),
    ("--beta", "0.2", "negsub_beta", 0.2),
    ("--postprocess-targets", "queries", "postprocess_targets", "queries"),
]


class TestRunFlags:
    def test_table_names_every_run_flag(self):
        p = argparse.ArgumentParser()
        _add_run_flags(p)
        flags = {flag for action in p._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == (
            {flag for flag, _, _, _ in _RUN_FLAGS} | {"--seed", "--out-dir", "--stages"}
        )

    @pytest.mark.parametrize("command", ["reproduce-trend", "negative-swap"])
    @pytest.mark.parametrize("flag, value, field, expected", _RUN_FLAGS)
    def test_flag_sets_its_manifest_field(self, tmp_path, command, flag, value, field, expected):
        base = [command, "--seed", "4", "--out-dir", str(tmp_path)]
        manifest = _manifest_from_args(build_parser().parse_args(base + [flag, value]))
        default = RunManifest(seed=4, out_dir=str(tmp_path))
        assert getattr(default, field) != expected
        assert manifest.to_dict() == {**default.to_dict(), field: expected}

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
