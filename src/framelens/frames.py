"""Antonym pole pairs and their semantic axis vectors.

A microframe is a pair of antonym pole words. Column 1 of the pair file
is the negative-orientation pole (bias -1 end), column 2 the positive
pole (bias +1 end); every report carries this orientation. The axis
vector is the positive pole vector minus the negative pole vector, kept
unnormalized (cosine similarity downstream handles scale).

A registry holds each frame as two table rows: the rows of its poles in
the embedding table's float32 matrix. It stores no axis. A block of
float64 axes is formed where a statistic uses it, with one gather and one
subtraction (`FrameRegistry.axes`), and frame ids and poles are columns
of names. A `Microframe`, which carries its axis, is built only on request.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError
from .reports import dumps
from .textio import check_utf8, open_text

# Axes shorter than this are degenerate: contributions divide by the axis norm.
MIN_AXIS_NORM = 1e-8

#: Axes formed together by the zero-axis check, so its float64 axes take
#: 64·d·8 bytes (150 KiB at d=300) at any registry size.
_CHECK_BLOCK = 64

#: A row norm within this relative distance of MIN_AXIS_NORM is taken again
#: as the norm of the 1-D axis. The two sum the squares in different orders,
#: so they differ by about d * 2**-53 relative, far inside this band at any
#: table width.
_RECHECK_BAND = 1e-6


@dataclass(frozen=True, eq=False)
class Microframe:
    """One antonym pair plus its axis vector (float64)."""

    id: str
    pole_minus: str
    pole_plus: str
    axis: np.ndarray

    def __post_init__(self) -> None:
        self.axis.setflags(write=False)

    def flipped(self) -> "Microframe":
        """Swap pole orientation; the axis negates exactly."""
        return Microframe(
            id=f"{self.pole_plus}--{self.pole_minus}",
            pole_minus=self.pole_plus,
            pole_plus=self.pole_minus,
            axis=-self.axis,
        )


def _axes(source: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Rows `plus` minus rows `minus` of `source`, as float64: each row is
    ``vp.astype(np.float64) - vm.astype(np.float64)`` bit for bit."""
    return np.subtract(source[plus], source[minus], dtype=np.float64)


class FrameRegistry:
    """Ordered microframes, as two rows each of a source matrix, plus the
    pairs that failed to build.

    Frame i has the id ``ids[i]``, the poles ``poles_minus[i]`` and
    ``poles_plus[i]``, and the axis ``source[plus[i]] - source[minus[i]]``
    in float64. `build_registry` makes the table's float32 matrix the
    source. Built by hand from microframes, as ``FrameRegistry(frames,
    dropped)``, the source is their stacked axes with one zero row
    appended, which every `minus` row points at; ``x - 0.0`` is ``x``
    exactly, so each axis comes back bit for bit, and both kinds are read
    the same way.
    """

    def __init__(self, frames: Iterable[Microframe], dropped=()):
        frames = tuple(frames)
        n = len(frames)
        width = frames[0].axis.shape[0] if frames else 0
        source = np.vstack([*(f.axis for f in frames), np.zeros(width)], dtype=np.float64)
        self._set(
            [f.id for f in frames], [f.pole_minus for f in frames],
            [f.pole_plus for f in frames], dropped,
            source, np.arange(n), np.full(n, n),
        )

    @classmethod
    def _of_rows(cls, ids, poles_minus, poles_plus, dropped, source, plus, minus):
        registry = cls.__new__(cls)
        registry._set(ids, poles_minus, poles_plus, dropped, source, plus, minus)
        return registry

    def _set(self, ids, poles_minus, poles_plus, dropped, source, plus, minus) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.poles_minus: tuple[str, ...] = tuple(poles_minus)
        self.poles_plus: tuple[str, ...] = tuple(poles_plus)
        self.dropped: tuple[tuple[tuple[str, str], str], ...] = tuple(dropped)
        self._source = source
        self._plus = np.asarray(plus, dtype=np.intp)
        self._minus = np.asarray(minus, dtype=np.intp)
        for array in (self._source, self._plus, self._minus):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def axes(self, block: slice) -> np.ndarray:
        """The float64 axes of the frames in `block`, one row each."""
        return _axes(self._source, self._plus[block], self._minus[block])

    def _frame(self, i: int) -> Microframe:
        (axis,) = self.axes(slice(i, i + 1))
        return Microframe(self.ids[i], self.poles_minus[i], self.poles_plus[i], axis)

    def __iter__(self) -> Iterator[Microframe]:
        return map(self._frame, range(len(self)))

    @property
    def frames(self) -> tuple[Microframe, ...]:
        """Every frame as a `Microframe`, built on each access."""
        return tuple(self)

    def get(self, frame_id: str) -> Microframe | None:
        try:
            i = self.ids.index(frame_id)
        except ValueError:
            return None
        return self._frame(i)


#: The frame id of a ``(pole_minus, pole_plus)`` pair: its poles joined by
#: ``--``. A C-level callable, so ids of many pairs take no Python call each.
_pair_id = "--".join


def frame_id(pole_minus: str, pole_plus: str) -> str:
    return _pair_id((pole_minus, pole_plus))


def make_frame(pole_minus: str, pole_plus: str, table: EmbeddingTable) -> Microframe:
    """Build a single microframe; raises DataError when a pole is unusable."""
    registry = build_registry([(pole_minus, pole_plus)], table)
    if registry.dropped:
        raise DataError(registry.dropped[0][1])
    return registry.frames[0]


def _zero_axes(matrix: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Whether each axis ``matrix[plus[i]] - matrix[minus[i]]`` is shorter than
    MIN_AXIS_NORM, decided as ``np.linalg.norm`` of that 1-D float64 axis
    decides it.

    A norm is at least the size of any one component, so an axis whose
    first component reaches the threshold (with _RECHECK_BAND to spare for
    the norm's rounding) is kept without forming it. The others are formed
    and their norms taken row-wise, _CHECK_BLOCK axes at a time; the few
    whose norm falls within _RECHECK_BAND of the threshold are decided
    again one at a time.
    """
    first = np.abs(np.subtract(matrix[plus, 0], matrix[minus, 0], dtype=np.float64))
    candidates = np.flatnonzero(first < MIN_AXIS_NORM * (1 + _RECHECK_BAND))
    plus, minus = plus[candidates], minus[candidates]
    norms = np.empty(len(candidates))
    for start in range(0, len(candidates), _CHECK_BLOCK):
        block = slice(start, start + _CHECK_BLOCK)
        axes = _axes(matrix, plus[block], minus[block])
        norms[block] = np.einsum("ij,ij->i", axes, axes)
    np.sqrt(norms, out=norms)
    short = norms < MIN_AXIS_NORM
    near = np.abs(norms - MIN_AXIS_NORM) <= _RECHECK_BAND * MIN_AXIS_NORM
    for i in np.flatnonzero(near).tolist():
        (axis,) = _axes(matrix, plus[i : i + 1], minus[i : i + 1])
        short[i] = float(np.linalg.norm(axis)) < MIN_AXIS_NORM
    zero = np.zeros(len(first), dtype=bool)
    zero[candidates] = short
    return zero


def build_registry(pairs: list[tuple[str, str]], table: EmbeddingTable) -> FrameRegistry:
    """Build microframes for every pair whose both poles resolve in `table`.

    Pairs with a missing pole, identical poles, or a degenerate axis land
    in `dropped` with a reason, in input order. Kept frames keep the input
    order too. A duplicate frame id is fatal: the pair file itself is
    malformed. Ids and pole rows are resolved for all pairs at once, and
    only the dropped pairs are visited one by one, for their reasons.
    """
    if not pairs:
        raise DataError("empty pair list")
    ids = list(map(_pair_id, pairs))
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for fid in ids:
            if fid in seen:
                raise DataError(f"duplicate frame id: {fid!r}")
            seen.add(fid)
    poles_minus, poles_plus = (list(poles) for poles in zip(*pairs))
    minus, plus = table.rows_of(poles_minus), table.rows_of(poles_plus)
    # a token has one row, so identical poles that resolve share it
    usable = (minus >= 0) & (plus >= 0) & (minus != plus)
    keep = usable.copy()
    keep[usable] = ~_zero_axes(table.matrix, plus[usable], minus[usable])
    dropped = []
    for i in np.flatnonzero(~keep).tolist():
        pole_minus, pole_plus = pairs[i]
        if pole_minus == pole_plus:
            reason = f"identical poles: {pole_minus!r}"
        elif minus[i] < 0:
            reason = f"missing pole: {pole_minus!r}"
        elif plus[i] < 0:
            reason = f"missing pole: {pole_plus!r}"
        else:
            reason = f"zero axis: {pole_minus!r} and {pole_plus!r} coincide"
        dropped.append(((pole_minus, pole_plus), reason))
    kept = keep.tolist()
    return FrameRegistry._of_rows(
        compress(ids, kept), compress(poles_minus, kept), compress(poles_plus, kept),
        dropped, table.matrix, plus[keep], minus[keep],
    )


def read_pairs_tsv(path: str) -> list[tuple[str, str]]:
    """Read a pole-pair file: two tab-separated columns, ``#`` comments.

    Frame ids must be unique; a repeated one names its line and the line of
    its first use. The file is read whole, and its lines are checked for
    UTF-8 only when it is not all ASCII. A line that starts with neither
    whitespace nor ``#`` and splits into two non-empty columns is a pair as
    it stands; only other lines are tested for blanks and comments.
    """
    try:
        with open_text(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read pair file {path!r}: {exc}") from exc
    ascii_text = text.isascii()
    pairs: list[tuple[str, str]] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not ascii_text:
            check_utf8(line, lineno, path)
        cols = line.split("\t")
        if len(cols) != 2 or not cols[0] or not cols[1] or line[0] == "#" or line[0].isspace():
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise DataError(f"{path}:{lineno}: expected two tab-separated poles")
        fid = _pair_id(cols)
        first = first_line.setdefault(fid, lineno)
        if first != lineno:
            raise DataError(f"{path}:{lineno}: duplicate frame id {fid!r} (first on line {first})")
        pairs.append((cols[0], cols[1]))
    if not pairs:
        raise DataError(f"no pairs in {path!r}")
    return pairs


def registry_record(registry: FrameRegistry) -> dict:
    """Audit record: kept frames (id and poles) and dropped pairs with reasons."""
    columns = registry.ids, registry.poles_minus, registry.poles_plus
    return {
        "frames": [
            {"id": fid, "pole_minus": pole_minus, "pole_plus": pole_plus}
            for fid, pole_minus, pole_plus in zip(*columns)
        ],
        "dropped": [
            {"pair": list(pair), "reason": reason} for pair, reason in registry.dropped
        ],
    }


def registry_to_json(registry: FrameRegistry) -> str:
    """The audit record as JSON text, without provenance."""
    return dumps(registry_record(registry)) + "\n"
