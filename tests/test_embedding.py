import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copydet import (
    DimMismatch,
    EmbeddingSet,
    Encoder,
    FormatError,
    NegSubConfig,
    NonFiniteValue,
    RankedMatches,
    ZeroVector,
    normalize,
    read_embeddings,
    subtract_negatives,
    topk,
    write_embeddings,
    write_matches_tsv,
)
from copydet.embedding import _check_ids, normalize_rows

from oracles import unit_set

# Each example overwrites the same files, so sharing tmp_path is safe.
_FILE_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestNormalize:
    def test_already_unit(self):
        np.testing.assert_allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_analytic(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    def test_random_norms(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 64))
            if np.linalg.norm(v) < 1e-12:
                continue
            assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(16) * rng.uniform(1e-6, 1e6)
            once = normalize(v)
            np.testing.assert_allclose(normalize(once), once, atol=1e-7)

    def test_float64_input_unchanged(self):
        v = np.array([3.0, 4.0])
        assert normalize(v) is not v
        np.testing.assert_array_equal(v, [3.0, 4.0])


class TestSingleRow:
    """normalize, topk and subtract_negatives share one 1-d vector check."""

    @pytest.mark.parametrize("shape", [(), (1, 4), (3, 4)])
    @pytest.mark.parametrize("noun", ["vector", "query", "descriptor"])
    def test_non_vector_input_raises(self, noun, shape):
        pool = unit_set(np.random.default_rng(0), 5, 4)
        call = {
            "vector": normalize,
            "query": lambda v: topk(v, pool, 2),
            "descriptor": lambda v: subtract_negatives(v, pool, NegSubConfig()),
        }[noun]
        with pytest.raises(DimMismatch, match=re.escape(f"expected a 1-d {noun}, got shape {shape}")):
            call(np.ones(shape))


class TestNormalizeRows:
    def test_scales_in_place_and_returns_norms(self):
        rows = np.array([[3.0, 4.0], [0.0, 2.0]])
        norms = normalize_rows(rows)
        np.testing.assert_array_equal(norms, [5.0, 2.0])
        np.testing.assert_array_equal(rows, [[0.6, 0.8], [0.0, 1.0]])

    def test_norms_are_linalg_norms(self):
        rows = np.random.default_rng(3).standard_normal((50, 17))
        want = np.linalg.norm(rows, axis=1)
        np.testing.assert_array_equal(normalize_rows(rows.copy()), want)

    @pytest.mark.parametrize("ids, name", [(None, "descriptor 1 "), (("a", "b", "c"), "descriptor 'b' ")])
    def test_zero_row_named_by_id_or_index(self, ids, name):
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVector, match=f"^{name}has norm 0.000e[+]00"):
            normalize_rows(rows, ids)
        np.testing.assert_array_equal(rows[0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_norm_rejected(self, bad):
        # 1e200 squared overflows: a finite row whose norm is not.
        rows = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(NonFiniteValue, match="^descriptor 'y' has a non-finite norm"):
            normalize_rows(rows, ("x", "y"))


class TestEmbeddingSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EmbeddingSet(("a", "a"), np.eye(2, dtype=np.float32))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingSet(("a",), np.eye(2, dtype=np.float32))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            EmbeddingSet(("a",), np.array([[0.5, 0.5]], dtype=np.float32))

    def test_raw_rows_allowed(self):
        es = EmbeddingSet(("a",), np.array([[5.0, 5.0]], dtype=np.float32), unit_norm=False)
        assert es.dim == 2 and es.count == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingSet(("a",), np.array([[np.nan, 1.0]], dtype=np.float32), unit_norm=False)

    def test_immutable(self):
        es = EmbeddingSet(("a",), np.array([[1.0, 0.0]], dtype=np.float32))
        with pytest.raises(ValueError):
            es.matrix[0, 0] = 2.0

    def test_caller_array_untouched(self):
        arr = np.eye(2, dtype=np.float32)
        EmbeddingSet(("a", "b"), arr)
        arr[0, 0] = 5.0  # must still be writable

    def test_float64_rows_are_rounded_once(self):
        rows = np.random.default_rng(11).standard_normal((7, 5)) * 1e3
        es = EmbeddingSet(tuple("abcdefg"), rows, unit_norm=False)
        assert es.matrix.dtype == np.float32
        np.testing.assert_array_equal(es.matrix.view(np.uint32), rows.astype(np.float32).view(np.uint32))

    @pytest.mark.parametrize("index", [2, slice(1, 3), np.array([3, 0, 3])], ids=["int", "slice", "array"])
    def test_rows_is_a_writable_float64_copy(self, index):
        rows = np.random.default_rng(12).standard_normal((4, 3))
        es = EmbeddingSet(tuple("abcd"), rows, unit_norm=False)
        before = es.matrix.copy()
        got = es.rows(index)
        assert got.dtype == np.float64 and got.flags.writeable
        np.testing.assert_array_equal(got, before[index].astype(np.float64))
        got[...] = 7.0
        np.testing.assert_array_equal(es.matrix, before)
        assert not es.matrix.flags.writeable

    def test_rows_defaults_to_every_row(self):
        es = EmbeddingSet(("a", "b"), np.eye(2))
        np.testing.assert_array_equal(es.rows(), np.eye(2))
        np.testing.assert_array_equal(es.row(1), [0.0, 1.0])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        es = unit_set(rng, 3, 4)
        path = tmp_path / "set.emb"
        write_embeddings(es, path)
        got = read_embeddings(path)
        assert got.ids == es.ids
        assert got.matrix.tobytes() == es.matrix.tobytes()
        assert got.unit_norm

    def test_round_trip_degenerate_shapes(self, tmp_path):
        for count, dim in [(1, 1), (1, 7), (5, 1)]:
            rng = np.random.default_rng(count * 10 + dim)
            es = unit_set(rng, count, dim)
            path = tmp_path / f"s{count}x{dim}.emb"
            write_embeddings(es, path)
            got = read_embeddings(path)
            assert got.ids == es.ids
            assert got.matrix.tobytes() == es.matrix.tobytes()

    def test_empty_set_round_trip(self, tmp_path):
        es = EmbeddingSet((), np.empty((0, 4), dtype=np.float32))
        path = tmp_path / "empty.emb"
        write_embeddings(es, path)
        got = read_embeddings(path)
        assert got.count == 0 and got.dim == 4

    def test_raw_round_trip_flagged(self, tmp_path):
        es = EmbeddingSet(("a", "b"), np.arange(6, dtype=np.float32).reshape(2, 3), unit_norm=False)
        path = tmp_path / "raw.emb"
        write_embeddings(es, path)
        blob = path.read_bytes()
        assert blob[:4] == b"ISCE"
        assert int.from_bytes(blob[4:8], "little") == 2  # raw format version
        got = read_embeddings(path)
        assert not got.unit_norm
        assert got.matrix.tobytes() == es.matrix.tobytes()

    def test_unicode_ids(self, tmp_path):
        es = EmbeddingSet(("héllo", "wörld"), np.eye(2, dtype=np.float32))
        path = tmp_path / "uni.emb"
        write_embeddings(es, path)
        assert read_embeddings(path).ids == ("héllo", "wörld")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        es = unit_set(np.random.default_rng(1), 2, 2)
        write_embeddings(es, path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.emb"
        write_embeddings(unit_set(np.random.default_rng(1), 2, 2), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        # Header says 5 rows, payload holds 4.
        path = tmp_path / "short.emb"
        es = unit_set(np.random.default_rng(2), 5, 4)
        write_embeddings(es, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4 * 4])
        with pytest.raises(FormatError, match="payload"):
            read_embeddings(path)

    def test_header_dim_disagrees_with_row_size(self, tmp_path):
        path = tmp_path / "dim.emb"
        es = unit_set(np.random.default_rng(3), 4, 8)
        write_embeddings(es, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (5).to_bytes(4, "little")  # dim 8 -> 5, payload unchanged
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"dim\.emb: header dim 5 disagrees with payload row size 32 bytes$"):
            read_embeddings(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "noids.emb"
        write_embeddings(unit_set(np.random.default_rng(4), 2, 2), path)
        path.with_suffix(".ids").unlink()
        with pytest.raises(FormatError, match="sidecar"):
            read_embeddings(path)

    def test_sidecar_line_count_mismatch(self, tmp_path):
        path = tmp_path / "ids.emb"
        write_embeddings(unit_set(np.random.default_rng(5), 2, 2), path)
        path.with_suffix(".ids").write_text("only_one\n", encoding="utf-8")
        with pytest.raises(FormatError, match="lines"):
            read_embeddings(path)

    def test_unit_file_with_raw_rows_rejected(self, tmp_path):
        path = tmp_path / "lie.emb"
        es = EmbeddingSet(("a",), np.array([[3.0, 4.0]], dtype=np.float32), unit_norm=False)
        write_embeddings(es, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 1  # claim unit-norm
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_sidecar_not_utf8(self, tmp_path):
        path = tmp_path / "enc.emb"
        write_embeddings(unit_set(np.random.default_rng(6), 1, 2), path)
        path.with_suffix(".ids").write_bytes(b"\xff\n")
        with pytest.raises(FormatError, match=r"enc\.ids: not UTF-8"):
            read_embeddings(path)

    def test_ids_with_any_line_boundary_rejected(self):
        for bad in ("a\x85b", "a\u2028b", "a\x0bb", "a\x1cb"):
            with pytest.raises(ValueError, match="single-line"):
                EmbeddingSet((bad,), np.ones((1, 2), dtype=np.float32), unit_norm=False)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab\r\n\x0b\x85\u2028", max_size=4), max_size=6))
    def test_one_pass_id_check_agrees_with_per_id_check(self, ids):
        def error(check):
            try:
                check()
            except ValueError as exc:
                return str(exc)
            return None

        def per_id():
            # The former check, one id at a time.
            for s in ids:
                if s.splitlines() != [s]:
                    raise ValueError(f"invalid id {s!r}: ids must be non-empty, single-line")

        assert error(lambda: _check_ids(tuple(ids))) == error(per_id)


_ids = st.text(min_size=1, max_size=12).filter(lambda s: s.splitlines() == [s])


@st.composite
def _raw_sets(draw):
    count = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(_ids, min_size=count, max_size=count, unique=True))
    # Every finite float32, subnormals and -0.0 included.
    mat = draw(hnp.arrays(np.float32, (count, dim), elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    return EmbeddingSet(tuple(ids), mat, unit_norm=False)


class TestSerializationProperties:
    @_FILE_PROPERTY
    @given(_raw_sets())
    def test_round_trip_bit_exact(self, tmp_path, es):
        path = tmp_path / "set.emb"
        write_embeddings(es, path)
        got = read_embeddings(path)
        assert got.ids == es.ids and not got.unit_norm
        assert got.matrix.shape == es.matrix.shape
        assert got.matrix.tobytes() == es.matrix.tobytes()

    @_FILE_PROPERTY
    @given(st.binary(max_size=80), st.binary(max_size=20))
    def test_arbitrary_bytes_raise_only_format_errors(self, tmp_path, blob, ids):
        path = tmp_path / "any.emb"
        path.write_bytes(blob)
        path.with_suffix(".ids").write_bytes(ids)
        try:
            read_embeddings(path)
        except FormatError:
            pass

    @_FILE_PROPERTY
    @given(_raw_sets(), st.data())
    def test_truncation_raises_only_format_errors(self, tmp_path, es, data):
        path = tmp_path / "cut.emb"
        write_embeddings(es, path)
        victim = data.draw(st.sampled_from([path, path.with_suffix(".ids")]))
        blob = victim.read_bytes()
        if not blob:
            return
        victim.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(FormatError):
            read_embeddings(path)


def _write_tsv(path, v):
    write_matches_tsv(path, RankedMatches.from_candidates([("q", "r", v)]))


def _write_emb(path, v):
    write_embeddings(EmbeddingSet((f"id{v}",), np.full((1, 2), v, dtype=np.float32), unit_norm=False), path)


def _write_encoder(path, v):
    Encoder.init(3, 2, rng=np.random.default_rng(v)).save(path)


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [_write_emb, _write_encoder, _write_tsv])
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact.out"
        write(path, 1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(path, 2)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_overwrite_leaves_only_targets(self, tmp_path):
        path = tmp_path / "set.emb"
        _write_emb(path, 1)
        _write_emb(path, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set.emb", "set.ids"]
