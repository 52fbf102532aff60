"""Load and serve pretrained word vectors as an immutable lookup table.

The on-disk format is whitespace-delimited text, one record per line:
``token c1 c2 ... cd``. An optional leading header line ``<count> <dim>``
(two integers) is detected and skipped. Tokens are matched byte-exact;
any case folding happens upstream in the corpus layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from .errors import DataError
from .textio import check_utf8, open_text


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

    @property
    def matrix(self) -> np.ndarray:
        """The read-only float32 matrix, one row per token."""
        return self._matrix

    def rows_of(self, tokens: list[str]) -> np.ndarray:
        """The row of each token in `matrix`, or -1 where the token is absent."""
        rows = map(self._index.get, tokens, repeat(-1))
        return np.fromiter(rows, dtype=np.intp, count=len(tokens))

    def vector_of(self, token: str) -> np.ndarray | None:
        """Return the stored float32 vector, or None when the token is absent.

        Absence is a value, never an error; no default vector is ever
        substituted.
        """
        i = self._index.get(token)
        if i is None:
            return None
        return self._matrix[i]

    def unit_slices(self, tokens: list[str], rows: int):
        """Yield (start, unit rows of ``tokens[start:start + rows]``) in order.

        All tokens must be present. Every slice is written into one float64
        buffer of at most `rows` rows: a yielded slice is valid until the
        next one is requested, and a caller may change it in place. A slice
        is gathered and normalised by `normalise_rows` in chunks of
        ``max(1, _CHUNK_COMPONENTS // dimension)`` rows, so no temporary
        exceeds a chunk and each row has the bits of the one-shot formula
        whatever `rows` is.
        """
        index = self.rows_of(tokens)
        if -1 in index:  # argmin is the first absent token
            raise DataError(f"token not in embedding table: {tokens[index.argmin()]!r}")
        chunk = max(1, _CHUNK_COMPONENTS // self.dimension)
        buf = np.empty((min(rows, len(index)), self.dimension))
        for start in range(0, len(index), rows):
            part = buf[:len(index) - start]
            for at in range(0, len(part), chunk):
                piece = part[at:at + chunk]
                piece[...] = self._matrix[index[start + at:start + at + len(piece)]]
                normalise_rows(piece, "zero-norm vector has no direction")
            yield start, part


def normalise_rows(x: np.ndarray, message: str) -> np.ndarray:
    """`x`, one vector a row, divided in place by its norms
    ``sqrt(add.reduce(x * x, axis=1))``, the bits of ``np.linalg.norm(x,
    axis=1)``; a zero row is a DataError with `message`."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    if np.any(norms == 0.0):
        raise DataError(message)
    x /= norms[:, None]
    return x


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


#: Components per chunk of the loader's bulk parse, and of the gather and
#: normalisation in `EmbeddingTable.unit_slices`. A parse chunk's float32 block
#: stays at 64 KiB, below glibc's default 128 KiB mmap threshold, until its rows
#: are copied into the load's one matrix. On explain-corpus (perfbench, seed 5,
#: 2-core x86-64) peak RSS read 56.0–56.4 MB; 56.7–56.9 MB with chunks of
#: 1 << 16 components, and 59.0–59.1 MB when the chunks were kept and stacked.
_CHUNK_COMPONENTS = 1 << 14

#: Rows of the first matrix of an unfiltered load, which doubles when full.
_START_ROWS = 1 << 12

#: Characters of dropped records per field count: each array of the count
#: stays at 64 KiB, below the same threshold.
_CHECK_BYTES = 1 << 16


def _field_counts(texts: list[str]) -> np.ndarray:
    """``len(text.split())`` for each ASCII text, counted in one pass over
    the joined bytes instead of building the fields."""
    # Each text is followed by a space, which ends its last field inside the
    # text's own segment; one more space ends the bytes.
    raw = np.frombuffer((" ".join(texts) + "  ").encode("ascii"), dtype=np.uint8)
    # Not one of the ASCII characters str.split splits on: \t \n \v \f \r,
    # \x1c-\x1f and the space.
    solid = (raw > 32) | (raw < 9) | ((raw > 13) & (raw < 28))
    last = (solid[:-1] > solid[1:]).view(np.uint8)  # the last character of each field
    starts = np.fromiter(
        accumulate((len(t) + 1 for t in texts), initial=0), dtype=np.intp, count=len(texts)
    )
    # A field and its separator take two bytes, so no count in fewer than
    # 2**17 bytes passes 65535.
    return np.add.reduceat(last, starts, dtype=np.uint16 if raw.size < 1 << 17 else np.intp)


class _Loader:
    """State of one load: the index, the kept rows in one float32 matrix,
    the line accounting, and the records queued for the bulk checks.

    The matrix is allocated when the first row is kept. With a filter it
    holds ``len(vocab_filter)`` rows, which bounds the kept rows because
    each is a distinct filter member; without one it starts at
    _START_ROWS and doubles in place when full. `matrix` trims it to the
    kept rows.
    """

    def __init__(self, path: str, vocab_filter: set[str] | None):
        self.path = path
        self.vocab_filter = vocab_filter
        self.index: dict[str, int] = {}
        self._rows: np.ndarray | None = None
        self.dim: int | None = None
        self.malformed = self.zero_vectors = self.duplicates = self.filtered = 0
        self.kept: list[tuple[int, str, str]] = []
        self.dropped: list[tuple[int, str, str]] = []
        self.dropped_bytes = 0

    def record(self, lineno: int, parts: list[str]) -> None:
        """The reference path: one record, split into its fields."""
        if lineno == 1 and _looks_like_header(parts):
            return
        token = parts[0]
        vocab_filter = self.vocab_filter
        # Once the dimension is known, a record of the right length that
        # the filter drops is not parsed. Any other record is, so a wrong
        # length still aborts the load, or counts as malformed. The queued
        # records are settled first, so rows keep file order and an error in
        # a queued record comes first.
        if vocab_filter is not None and len(parts) - 1 == self.dim and token not in vocab_filter:
            self.filtered += 1
            return
        self.flush()
        try:
            # numpy reads each string with float() and rounds that double
            # to float32: the bytes of a Python float cast to float32.
            vec = np.array(parts[1:], dtype=np.float32)
        except ValueError:
            self.malformed += 1
            return
        if vec.size == 0:
            self.malformed += 1
            return
        if self.dim is None:
            self.dim = int(vec.size)
        elif vec.size != self.dim:
            raise DataError(
                f"{self.path}:{lineno}: vector has {vec.size} components, expected {self.dim}"
            )
        if vocab_filter is not None and token not in vocab_filter:
            self.filtered += 1
            return
        self._keep([token], vec[None, :])

    def queue(self, lineno: int, token: str, fields: str) -> None:
        """Queue a record whose `fields` are ASCII, once the dimension is
        known: for a bulk parse if the filter keeps it, for a bulk field
        count if it drops it. Flush once either queue is full."""
        if self.vocab_filter is None or token in self.vocab_filter:
            self.kept.append((lineno, token, fields))
            full = len(self.kept) * self.dim >= _CHUNK_COMPONENTS
        else:
            self.dropped.append((lineno, token, fields))
            self.dropped_bytes += len(fields)
            full = self.dropped_bytes >= _CHECK_BYTES
        if full:
            self.flush()

    def flush(self) -> None:
        """Settle the queued records. A dropped record of `dim` fields is
        filtered. The kept records are parsed in one `np.loadtxt` call, which
        splits fields as `str.split` does, reads each to a double and casts
        it, as `record` does. Every other record, and a kept chunk that
        loadtxt rejects (it refuses `1_000`, which float() reads) or that
        does not come out `dim` wide, goes through `record` in file order."""
        kept, dropped = self.kept, self.dropped
        self.kept, self.dropped, self.dropped_bytes = [], [], 0
        replay = []
        if dropped:
            proven = (_field_counts([fields for _, _, fields in dropped]) == self.dim).tolist()
            self.filtered += sum(proven)
            replay = [rec for rec, ok in zip(dropped, proven) if not ok]
        if kept:
            try:
                # max_rows lets loadtxt allocate the block once instead of growing it
                block = np.loadtxt(
                    [fields for _, _, fields in kept],
                    dtype=np.float32, comments=None, ndmin=2, max_rows=len(kept),
                )
            except ValueError:
                block = None
            if block is not None and block.shape == (len(kept), self.dim):
                self._keep([token for _, token, _ in kept], block)
            else:
                replay += kept
        for lineno, token, fields in sorted(replay):
            self.record(lineno, [token, *fields.split()])

    def _keep(self, tokens: list[str], block: np.ndarray) -> None:
        """Store the rows of `block` that are finite, nonzero and first of their token."""
        finite = np.isfinite(block).all(axis=1).tolist()
        nonzero = block.any(axis=1).tolist()
        index = self.index
        kept = []
        for i, token in enumerate(tokens):
            if not finite[i]:
                self.malformed += 1
            elif not nonzero[i]:
                self.zero_vectors += 1
            elif token in index:
                self.duplicates += 1
            else:
                index[token] = len(index)
                kept.append(i)
        if not kept:
            return
        end = len(index)
        start = end - len(kept)
        if self._rows is None:
            capacity = _START_ROWS if self.vocab_filter is None else len(self.vocab_filter)
            self._rows = np.empty((capacity, self.dim), dtype=np.float32)
        if end > len(self._rows):
            # No view of _rows exists here: the slice below is the only one
            # this class takes, and it is gone once its assignment ends. The
            # reference count is no proof of that: under a tracer or profiler
            # the interpreter holds one more reference to the array (a
            # profiler's c_call event gets the bound method), and refcheck
            # would refuse the resize.
            self._rows.resize((max(end, 2 * len(self._rows)), self.dim), refcheck=False)
        self._rows[start:end] = block if len(kept) == len(tokens) else block[kept]

    def matrix(self) -> np.ndarray | None:
        """Hand over the kept rows, trimmed in place to their count; None when
        no row was kept. The loader drops its reference, so it never resizes
        the array again."""
        rows, self._rows = self._rows, None
        if rows is not None:
            # As in _keep, no view of the rows exists yet: nothing has seen them.
            rows.resize((len(self.index), self.dim), refcheck=False)
        return rows


def load_embeddings(path: str, vocab_filter: set[str] | None = None) -> EmbeddingTable:
    """Parse an embedding text file into an EmbeddingTable.

    Prints nothing: the table's `stats` count the kept, skipped and
    filtered lines.

    Parameters
    ----------
    path : str
        UTF-8 text file, one ``token c1 ... cd`` record per line.
    vocab_filter : set of str, optional
        When given, only tokens in the filter are kept.

    Raises
    ------
    DataError
        Unreadable file, a line that is not UTF-8, no loadable vectors, or
        inconsistent dimension across lines. Zero-norm vectors and
        malformed lines are skipped and counted, not fatal. A line kept by
        the filter whose vector has a component that is not finite as
        float32 is malformed. A line the filter drops is counted as
        filtered; its components are parsed only when its field count
        differs from the dimension.
    """
    try:
        fh = open_text(path)
    except OSError as exc:
        raise DataError(f"cannot read embeddings file {path!r}: {exc}") from exc

    load = _Loader(path, vocab_filter)
    # Once the first record has fixed the dimension, a record whose vector
    # part is ASCII is queued for the bulk checks. Every other record takes
    # the reference path.
    #
    # A component beyond float32 range becomes inf on the cast; the finiteness
    # check skips the record, so the cast's overflow warning is noise.
    with fh, np.errstate(over="ignore"):
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    check_utf8(line, lineno, path)
                except DataError:
                    load.flush()  # an error in a queued record comes first
                    raise
            head = line.split(maxsplit=1)
            if len(head) == 2 and load.dim is not None and head[1].isascii():
                load.queue(lineno, *head)
            elif head:
                load.record(lineno, line.split())
        load.flush()

    matrix = load.matrix()
    if matrix is None:
        raise DataError(f"no loadable vectors in {path!r}")

    stats = LoadStats(
        kept=len(load.index),
        malformed=load.malformed,
        zero_vectors=load.zero_vectors,
        duplicates=load.duplicates,
        filtered=load.filtered,
    )
    return EmbeddingTable(dimension=load.dim, _index=load.index, _matrix=matrix, stats=stats)
