"""Golden pin: the SHA-256 of every artifact of one small reproduce-trend run.

The manifest is the one acceptance criterion 9 uses. A refactor either
keeps these hashes or re-pins them for a stated cause, such as a new RNG
draw order or float summation order, recorded in CHANGES.md; the oracles
and gates must still pass unchanged.

The hashes depend on float summation order, so the BLAS kernel moves them
too. numpy's OpenBLAS wheels pick their kernel from the CPU at start-up
(DYNAMIC_ARCH), so the run happens in a child interpreter with
``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_NUM_THREADS=1``: the AVX2
kernel, which any x86-64 CPU with AVX2 runs, and one thread. The hashes
are pinned under that setting. A numpy built on another BLAS can still
move them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import copydet
from copydet import RunManifest

GOLDEN = {
    "embeddings/queries.emb": "8016a1e7b33932ecf551760093ef2817172436e742480790d655555afefbb27b",
    "embeddings/queries_post.emb": "371c6f0ce346a3aa0df5bd69f1ed4616aff3d24a62d5bc63551d5fb27cc9c4cc",
    "embeddings/reference.emb": "f717f0fdcd338f9725a0717d9a96003997f500cc74053d40948b884bcc0e2e3a",
    "embeddings/reference_post.emb": "98315e1302faef8b08d719bf657038dd9ad7e1fa424384c14bc44e40787fe53b",
    "embeddings/training.emb": "aa4f8bd8a5996d5a1117852ec61e00cdbfd177c22569dfb44a78c57fe522899c",
    "report.json": "9a8c5f783862a1f282a0b34da89e2038fcb0b28f1cd0dbcdaf64a0cd5e4394cd",
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
        n_train=128, n_ref=128, n_query=64, d_in=16, encoder_dim=8,
        bank_capacity=256,
        stages=[
            dict(index=1, tier="weak", epochs=1, lr=0.3, batch_size=16),
            dict(index=2, tier="strong", include_reference_negatives=True,
                 include_gt_positives=True, epochs=1, lr=0.1, batch_size=16),
        ],
    )


def test_small_manifest_artifacts_match_golden_hashes(tmp_path):
    # The report embeds the manifest hash, which covers out_dir: run from a
    # fixed relative path.
    src = str(Path(copydet.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run(
        [sys.executable, "-c", _CHILD, _manifest("run").to_json()],
        cwd=tmp_path, env=env, check=True,
    )
    out = tmp_path / "run"
    pinned = sorted(["report.json"] + [p.relative_to(out).as_posix() for p in out.rglob("*.emb")])
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == GOLDEN
