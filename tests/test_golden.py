"""Golden pins: the SHA-256 of every artifact of one small reproduce-trend run,
of the negative-swap report on the same manifest, and of the outputs of the
README's step-by-step CLI match flow.

The manifest is the one acceptance criterion 9 uses. A refactor either
keeps these hashes or re-pins them for a stated cause, such as a new RNG
draw order or float summation order, recorded in CHANGES.md; the oracles
and gates must still pass unchanged.

The hashes depend on float summation order, so the BLAS kernel moves them
too. numpy's OpenBLAS wheels pick their kernel from the CPU at start-up
(DYNAMIC_ARCH), so each run happens in a child interpreter with
``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_NUM_THREADS=1``: the AVX2
kernel, which any x86-64 CPU with AVX2 runs, and one thread. The hashes
are pinned under that setting. A numpy built on another BLAS can still
move them.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import copydet
from copydet import EmbeddingSet, Encoder, RunManifest, WorldConfig, write_embeddings

GOLDEN = {
    "embeddings/queries.emb": "473471e985ad73d58a8601b7b1cfc1a1dfd1b0153c115a7eeedd3d36e306e701",
    "embeddings/queries_post.emb": "fb8a8281214b904b5e6b66e5128ebc0fb3a2e2a3d5d9e8f24b0d0e534cb1153c",
    "embeddings/reference.emb": "02e5f1d809fb1783e0d967893204b8d30f571040b6910a598d8c3bf51560d0b0",
    "embeddings/reference_post.emb": "84b1a4d36d967b230ee42b6f83654e952803c132f5fe0bee6342ff57559225a3",
    "embeddings/training.emb": "83ad268b9eb821b3f43fa5194ded343e8d67458b7387a3ba81ca144e26560c4b",
    "report.json": "93454fc04d4f333b14fac1f4b30e5997fa36df0bfc57f633232d0bfceffdfb5a",
    "world/queries.emb": "eb54467f6d87aaa9f6f6ae3c1ff29394d4243a4b14179708aabea4bdbb474b36",
    "world/reference.emb": "3fe5213061a80ab9064e075fd84811eebf68da9d159abcf0f72b8eb0119778df",
    "world/training.emb": "27098f4adf593c31529947c7f5c3f2e91a0f4012a616671ad8398963ec116a44",
}

_CHILD = (
    "import json, sys\n"
    "from copydet import RunManifest, reproduce_trend\n"
    "reproduce_trend(RunManifest.from_dict(json.loads(sys.argv[1])))\n"
)


def _manifest(out_dir):
    return RunManifest(
        seed=11, out_dir=str(out_dir),
        world=WorldConfig(n_train=128, n_ref=128, n_query=64, d_in=16), encoder_dim=8,
        bank_capacity=256,
        stages=[
            dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16),
            dict(index=2, tier="strong", include_reference_negatives=True,
                 include_gt_positives=True, epochs=1, lr=0.1, batch_size=16),
        ],
    )


def _run_pinned(code, arg, cwd):
    """Run ``code`` with ``arg`` in a child interpreter on the pinned BLAS kernel."""
    src = str(Path(copydet.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run([sys.executable, "-c", code, arg], cwd=cwd, env=env, check=True)


def test_small_manifest_artifacts_match_golden_hashes(tmp_path):
    # The report embeds the manifest hash, which covers out_dir: run from a
    # fixed relative path.
    _run_pinned(_CHILD, _manifest("run").to_json(), tmp_path)
    out = tmp_path / "run"
    pinned = sorted(["report.json"] + [p.relative_to(out).as_posix() for p in out.rglob("*.emb")])
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == GOLDEN


# negative-swap's report covers its twin pool: a fresh draw the post-process
# uses in place of the training pool.
GOLDEN_SWAP_REPORT = "6b45a5f20b99a9d4cf294459491e30e009307196d69f36be229d63691fcdfbfc"

_SWAP_CHILD = _CHILD.replace("reproduce_trend", "negative_swap")


def test_small_manifest_negative_swap_report_matches_golden_hash(tmp_path):
    _run_pinned(_SWAP_CHILD, _manifest("run").to_json(), tmp_path)
    got = hashlib.sha256((tmp_path / "run" / "report.json").read_bytes()).hexdigest()
    assert got == GOLDEN_SWAP_REPORT


# The CLI match flow: embed x3, post-process references and queries against
# the training pool, search, eval. A pool of 1000 rows gives the post-process
# blocks of 131 rows (10 for the references, 4 for the queries) and the
# search blocks of 109 queries against 1200 references (5 blocks), every
# row shorter than numpy's 8192-element ufunc buffer.
GOLDEN_MATCH = {
    "eval.json": "66e184db8ba1f2c6bc6f67f4cf7e1e6a2eb47071c15db4d993c21175e5047347",
    "matches.tsv": "c935872ca63f7abe43bed3572b629d60ed51f0f82958624d6ca8ad1d7e57083d",
    "queries_post.emb": "55af7a7781b21af23e4e63d18d9e0dbfb5ffbff96e197e45a21eb4e78d793f13",
    "reference_post.emb": "d81a966766ef64c39852a4b01ff275fe1feed159521f309799a3550babdd19f6",
}

_MATCH_CHILD = (
    "import contextlib, io, json, sys\n"
    "from copydet.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        assert main(argv) == 0, argv\n"
    "open('eval.json', 'w').write(out.getvalue())\n"
)

_NEGSUB = ["--n", "2", "--k", "10", "--beta", "0.35"]

_MATCH_ARGV = [
    *(["embed", "--encoder", "encoder.bin", "--in", f"raw_{name}.emb", "--out", f"{name}.emb"]
      for name in ("training", "reference", "queries")),
    ["postprocess", "--negatives", "training.emb", *_NEGSUB,
     "--in", "reference.emb", "--out", "reference_post.emb"],
    ["postprocess", "--negatives", "training.emb", *_NEGSUB,
     "--in", "queries.emb", "--out", "queries_post.emb"],
    ["search", "--queries", "queries_post.emb", "--db", "reference_post.emb",
     "--k", "10", "--out", "matches.tsv"],
    ["eval", "--gt", "gt.csv", "--pred", "matches.tsv"],
]


def _write_match_inputs(out):
    n_train, n_ref, n_query, d_in, dim = 1000, 1200, 500, 32, 16
    rng = np.random.default_rng(20211)
    raw = {
        "training": rng.standard_normal((n_train, d_in)),
        "reference": rng.standard_normal((n_ref, d_in)),
        "queries": rng.standard_normal((n_query, d_in)),
    }
    # A quarter of the queries are noisy copies of distinct references.
    n_copy = n_query // 4
    src = rng.choice(n_ref, size=n_copy, replace=False)
    raw["queries"][:n_copy] = raw["reference"][src] + 0.5 * rng.standard_normal((n_copy, d_in))
    for name, matrix in raw.items():
        ids = [f"{name[0].upper()}{i:05d}" for i in range(len(matrix))]
        write_embeddings(EmbeddingSet(ids, matrix, unit_norm=False), out / f"raw_{name}.emb")
    Encoder([(rng.standard_normal((d_in, dim)), np.zeros(dim))]).save(out / "encoder.bin")
    with open(out / "gt.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            [["query_id", "reference_id"]] + [[f"Q{j:05d}", f"R{int(i):05d}"] for j, i in enumerate(src)]
        )


def test_cli_match_flow_outputs_match_golden_hashes(tmp_path):
    _write_match_inputs(tmp_path)
    _run_pinned(_MATCH_CHILD, json.dumps(_MATCH_ARGV), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_MATCH}
    assert got == GOLDEN_MATCH
