"""Descriptor vectors, embedding sets, and their binary on-disk format.

An embedding set is an ordered collection of fixed-dimension float vectors
with one string id per row. Files store float32; all arithmetic elsewhere
in the toolkit runs in float64.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatch, FormatError, NonFiniteValue, ZeroVector

MAGIC = b"ISCE"
VERSION_UNIT = 1
VERSION_RAW = 2

# Tolerance for the unit-norm invariant: well above f32 rounding, well
# below any meaningful geometric difference.
NORM_ATOL = 1e-6
ZERO_NORM = 1e-12

_HEADER = struct.Struct("<4sIIQ")


def normalize_rows(rows: np.ndarray, ids: tuple[str, ...] | None = None) -> np.ndarray:
    """Scale the float64 ``rows`` to unit L2 norm in place; returns their norms
    (np.linalg.norm's, without its wrapper). The first row whose norm is not
    finite raises NonFiniteValue, or below 1e-12 ZeroVector, named by its id
    in ``ids`` or by its index."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    bad = np.flatnonzero(~((norms >= ZERO_NORM) & (norms < np.inf)))
    if bad.size:
        i = bad[0]
        which = f"descriptor {i}" if ids is None else f"descriptor {ids[i]!r}"
        if np.isfinite(norms[i]):
            raise ZeroVector(f"{which} has norm {norms[i]:.3e}, too small to normalize")
        raise NonFiniteValue(f"{which} has a non-finite norm ({norms[i]})")
    rows /= norms[:, None]
    return norms


def single_row(v: np.ndarray, noun: str) -> np.ndarray:
    """The 1-d ``v`` as a float64 (1, d) row, a view where it can be: the one
    check of every single-vector call, whose DimMismatch names ``noun``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimMismatch(f"expected a 1-d {noun}, got shape {v.shape}")
    return v[None, :]


def normalize(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit L2 norm, as a new float64 vector; errors as
    :func:`normalize_rows`."""
    row = single_row(v, "vector").copy()
    normalize_rows(row)
    return row[0]


def _check_ids(ids: tuple[str, ...]) -> None:
    # Any line boundary str.splitlines knows (not only \n and \r) would split
    # an id when the sidecar is read back. The joined ids split back into
    # themselves iff every id is non-empty and single-line.
    if not (all(ids) and "\n".join(ids).splitlines() == list(ids)):
        bad = next(s for s in ids if s.splitlines() != [s])
        raise ValueError(f"invalid id {bad!r}: ids must be non-empty, single-line")


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file and ``os.replace``.

    The temporary file sits in the target's directory, so the rename is
    atomic: a reader, or a run that dies mid-write, sees the old file or
    the new one, never a partial one. The temporary file is removed if
    anything fails, and an OSError names ``path`` in its place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; any other bytes are a FormatError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


@dataclass(frozen=True)
class EmbeddingSet:
    """Immutable ordered set of vectors with string ids.

    ``matrix`` is float32, one row per id: only the constructor rounds rows
    to float32, and only :meth:`rows` widens them back to float64. ``unit_norm``
    marks sets whose rows carry the descriptor unit-norm guarantee; raw feature
    sets (for example synthetic world inputs) set it False and are written to
    disk with a distinct format version.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)
    unit_norm: bool = True

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=np.float32)
        if mat is self.matrix and mat.flags.writeable:
            mat = mat.copy()
        if mat.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {mat.shape}")
        if mat.shape[1] < 1:
            raise ValueError("dim must be at least 1")
        ids = tuple(self.ids)
        _check_ids(ids)
        if len(ids) != mat.shape[0]:
            raise ValueError(
                f"{len(ids)} ids but {mat.shape[0]} matrix rows"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be unique within the set")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite values")
        if self.unit_norm and mat.shape[0] > 0:
            norms = np.linalg.norm(mat.astype(np.float64), axis=1)
            bad = np.abs(norms - 1.0) > NORM_ATOL
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(
                    f"row {i} ({ids[i]!r}) has norm {norms[i]:.8f}, "
                    f"outside 1 +/- {NORM_ATOL}"
                )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "ids", ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def count(self) -> int:
        return int(self.matrix.shape[0])

    def rows(self, index=slice(None)) -> np.ndarray:
        """A writable float64 copy of ``matrix[index]``, all rows by default."""
        return self.matrix[index].astype(np.float64)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a float64 vector."""
        return self.rows(i)


def _ids_path(path: Path) -> Path:
    return path.with_suffix(".ids")


def write_embeddings(es: EmbeddingSet, path: str | Path) -> None:
    """Write ``es`` to ``path`` plus an ``.ids`` sidecar next to it.

    Layout (little-endian): magic ``ISCE``, version u32 (1 unit-norm,
    2 raw), dim u32, count u64, then count*dim float32 row-major. The
    sidecar holds one id per line, same order, UTF-8. Each file is
    replaced atomically, the sidecar first.
    """
    path = Path(path)
    version = VERSION_UNIT if es.unit_norm else VERSION_RAW
    header = _HEADER.pack(MAGIC, version, es.dim, es.count)
    payload = np.ascontiguousarray(es.matrix, dtype="<f4").tobytes()
    ids_text = "".join(s + "\n" for s in es.ids)
    write_bytes_atomic(_ids_path(path), ids_text.encode("utf-8"))
    write_bytes_atomic(path, header + payload)


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding set written by :func:`write_embeddings`.

    The round trip is bit-exact: floats come back with identical bit
    patterns. Raises FormatError on bad magic, unknown version, or a
    truncated/oversized payload, naming the header's dim when the payload
    length is consistent with the row count but not with that dim.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, dim, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version not in (VERSION_UNIT, VERSION_RAW):
        raise FormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise FormatError(f"{path}: header dim {dim} is invalid")
    payload = blob[_HEADER.size:]
    expected = count * dim * 4
    if len(payload) != expected:
        if count > 0 and len(payload) % count == 0 and len(payload) % 4 == 0:
            detail = f"header dim {dim} disagrees with payload row size {len(payload) // count} bytes"
        else:
            detail = f"payload holds {len(payload)} bytes, header implies {expected}"
        raise FormatError(f"{path}: {detail}")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim)

    ids_file = _ids_path(path)
    if not ids_file.exists():
        raise FormatError(f"{ids_file}: id sidecar missing")
    text = read_text(ids_file)
    # Every id line ends in a newline, so a truncated sidecar either loses
    # a line or its final newline.
    if text and not text.endswith("\n"):
        raise FormatError(f"{ids_file}: last id line has no newline (truncated?)")
    lines = text.splitlines()
    if len(lines) != count:
        raise FormatError(
            f"{ids_file}: {len(lines)} id lines, header implies {count}"
        )
    try:
        return EmbeddingSet(tuple(lines), matrix, unit_norm=(version == VERSION_UNIT))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
