"""Load and serve pretrained word vectors as an immutable lookup table.

The on-disk format is whitespace-delimited text, one record per line:
``token c1 c2 ... cd``. An optional leading header line ``<count> <dim>``
(two integers) is detected and skipped. Tokens are matched byte-exact;
any case folding happens upstream in the corpus layer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LoadStats:
    """Line accounting for one load: what was kept, skipped, or rejected."""

    kept: int = 0
    malformed: int = 0
    zero_vectors: int = 0
    duplicates: int = 0
    filtered: int = 0

    @property
    def skipped(self) -> int:
        return self.malformed + self.zero_vectors + self.duplicates


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable token -> dense vector map.

    Vectors are stored as a single float32 matrix (one row per token) to
    keep large tables compact; downstream arithmetic promotes to float64.
    Lookups are pure: the same token always returns the identical bytes.
    """

    dimension: int
    _index: dict[str, int] = field(repr=False)
    _matrix: np.ndarray = field(repr=False)
    stats: LoadStats = field(default_factory=LoadStats)

    def __post_init__(self) -> None:
        self._matrix.setflags(write=False)

    @property
    def vocabulary(self):
        """Set-like view of all stored tokens."""
        return self._index.keys()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def vector_of(self, token: str) -> np.ndarray | None:
        """Return the stored float32 vector, or None when the token is absent.

        Absence is a value, never an error; no default vector is ever
        substituted.
        """
        i = self._index.get(token)
        if i is None:
            return None
        return self._matrix[i]

    def unit_rows(self, tokens: list[str]) -> np.ndarray:
        """Vectors for `tokens` (all must be present) as float64 rows of unit length."""
        try:
            rows = [self._index[t] for t in tokens]
        except KeyError as exc:
            raise DataError(f"token not in embedding table: {exc.args[0]!r}") from None
        matrix = self._matrix[rows].astype(np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0.0):
            raise DataError("zero-norm vector has no direction")
        matrix /= norms[:, None]
        return matrix


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def load_embeddings(
    path: str,
    vocab_filter: set[str] | None = None,
    *,
    warn: bool = True,
) -> EmbeddingTable:
    """Parse an embedding text file into an EmbeddingTable.

    Parameters
    ----------
    path : str
        UTF-8 text file, one ``token c1 ... cd`` record per line.
    vocab_filter : set of str, optional
        When given, only tokens in the filter are kept.
    warn : bool
        Emit one summary line to stderr when lines were skipped.

    Raises
    ------
    DataError
        Unreadable file, no loadable vectors, or inconsistent dimension
        across lines. Zero-norm vectors and malformed lines are skipped
        and counted, not fatal. A line kept by the filter whose vector
        has a component that is not finite as float32 is malformed.
    """
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    malformed = zero_vectors = duplicates = filtered = 0

    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read embeddings file {path!r}: {exc}") from exc

    # A component beyond float32 range becomes inf on the cast; the finiteness
    # check below skips the record, so the cast's overflow warning is noise.
    with fh, np.errstate(over="ignore"):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and _looks_like_header(parts):
                continue
            token = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float32)
            except ValueError:
                malformed += 1
                continue
            if vec.size == 0:
                malformed += 1
                continue
            if dim is None:
                dim = int(vec.size)
            elif vec.size != dim:
                raise DataError(
                    f"{path}:{lineno}: vector has {vec.size} components, expected {dim}"
                )
            if vocab_filter is not None and token not in vocab_filter:
                filtered += 1
                continue
            if not np.isfinite(vec).all():
                malformed += 1
                continue
            if not vec.any():
                zero_vectors += 1
                continue
            if token in index:
                duplicates += 1
                continue
            index[token] = len(rows)
            rows.append(vec)

    if not rows:
        raise DataError(f"no loadable vectors in {path!r}")

    stats = LoadStats(
        kept=len(rows),
        malformed=malformed,
        zero_vectors=zero_vectors,
        duplicates=duplicates,
        filtered=filtered,
    )
    if warn and stats.skipped:
        print(
            f"embeddings: skipped {stats.skipped} lines in {path} "
            f"(malformed={malformed}, zero={zero_vectors}, duplicate={duplicates})",
            file=sys.stderr,
        )
    matrix = np.vstack(rows)
    assert dim is not None
    return EmbeddingTable(dimension=dim, _index=index, _matrix=matrix, stats=stats)
