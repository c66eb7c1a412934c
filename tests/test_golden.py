"""Golden pin: the SHA-256 of every artifact of one small reproduce-trend run.

The manifest is the one acceptance criterion 9 uses. A refactor either
keeps these hashes or re-pins them for a stated cause, such as a new RNG
draw order or float summation order, recorded in CHANGES.md; the oracles
and gates must still pass unchanged. The hashes depend on float summation
order, so a different BLAS kernel can move them as well.
"""

import hashlib

from copydet import RunManifest, reproduce_trend

GOLDEN = {
    "embeddings/queries.emb": "3b501ffc6a9feba38e67cffad9d19a5ac379367b706e6390fc3ec620077862ce",
    "embeddings/queries_post.emb": "4ee5f5e3cd67f37d27d5b48c1896c274f74d38e5df5e1b8c66f39612ab716ecf",
    "embeddings/reference.emb": "b30c17cb6b625763722f01330f07a228ad6bd663d827c6b215422175061bca79",
    "embeddings/reference_post.emb": "71b1fb3a0e37c0b26f03d534f750f2f28a0e3e18b1c75b40b2fe96002b94f42b",
    "embeddings/training.emb": "8171e3ddaedc6612500d961eaf0462d344be47b8438d85e471d469d15286a97c",
    "report.json": "522b2ca7498b1204011c99483cfe16cb250f90acffdaa29ea782162ee81e1484",
    "world/queries.emb": "eb54467f6d87aaa9f6f6ae3c1ff29394d4243a4b14179708aabea4bdbb474b36",
    "world/reference.emb": "3fe5213061a80ab9064e075fd84811eebf68da9d159abcf0f72b8eb0119778df",
    "world/training.emb": "27098f4adf593c31529947c7f5c3f2e91a0f4012a616671ad8398963ec116a44",
}


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


def test_small_manifest_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    # The report embeds the manifest hash, which covers out_dir: run from a
    # fixed relative path.
    monkeypatch.chdir(tmp_path)
    reproduce_trend(_manifest("run"))
    out = tmp_path / "run"
    pinned = sorted(["report.json"] + [p.relative_to(out).as_posix() for p in out.rglob("*.emb")])
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == GOLDEN
