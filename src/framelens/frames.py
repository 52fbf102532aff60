"""Antonym pole pairs and their semantic axis vectors.

A microframe is a pair of antonym pole words. Column 1 of the pair file
is the negative-orientation pole (bias -1 end), column 2 the positive
pole (bias +1 end); every report carries this orientation. The axis
vector is the positive pole vector minus the negative pole vector, kept
unnormalized (cosine similarity downstream handles scale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError

# Axes shorter than this are degenerate: contributions divide by the axis norm.
MIN_AXIS_NORM = 1e-8


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


@dataclass(frozen=True)
class FrameRegistry:
    """Ordered microframe collection plus the pairs that failed to build."""

    frames: tuple[Microframe, ...]
    dropped: tuple[tuple[tuple[str, str], str], ...]

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def get(self, frame_id: str) -> Microframe | None:
        for f in self.frames:
            if f.id == frame_id:
                return f
        return None

    def pole_tokens(self) -> set[str]:
        out: set[str] = set()
        for f in self.frames:
            out.add(f.pole_minus)
            out.add(f.pole_plus)
        return out


def frame_id(pole_minus: str, pole_plus: str) -> str:
    return f"{pole_minus}--{pole_plus}"


def make_frame(pole_minus: str, pole_plus: str, table: EmbeddingTable) -> Microframe:
    """Build a single microframe; raises DataError when a pole is unusable."""
    if pole_minus == pole_plus:
        raise DataError(f"identical poles: {pole_minus!r}")
    vm = table.vector_of(pole_minus)
    if vm is None:
        raise DataError(f"missing pole: {pole_minus!r}")
    vp = table.vector_of(pole_plus)
    if vp is None:
        raise DataError(f"missing pole: {pole_plus!r}")
    axis = vp.astype(np.float64) - vm.astype(np.float64)
    if float(np.linalg.norm(axis)) < MIN_AXIS_NORM:
        raise DataError(f"zero axis: {pole_minus!r} and {pole_plus!r} coincide")
    return Microframe(
        id=frame_id(pole_minus, pole_plus),
        pole_minus=pole_minus,
        pole_plus=pole_plus,
        axis=axis,
    )


def build_registry(pairs: list[tuple[str, str]], table: EmbeddingTable) -> FrameRegistry:
    """Build microframes for every pair whose both poles resolve in `table`.

    Pairs with a missing pole, identical poles, or a degenerate axis land
    in `dropped` with a reason. Input order is preserved. A duplicate
    frame id is fatal: the pair file itself is malformed.
    """
    if not pairs:
        raise DataError("empty pair list")
    frames: list[Microframe] = []
    dropped: list[tuple[tuple[str, str], str]] = []
    seen: set[str] = set()
    for pole_minus, pole_plus in pairs:
        fid = frame_id(pole_minus, pole_plus)
        if fid in seen:
            raise DataError(f"duplicate frame id: {fid!r}")
        seen.add(fid)
        try:
            frames.append(make_frame(pole_minus, pole_plus, table))
        except DataError as exc:
            dropped.append(((pole_minus, pole_plus), str(exc)))
    return FrameRegistry(frames=tuple(frames), dropped=tuple(dropped))


def read_pairs_tsv(path: str) -> list[tuple[str, str]]:
    """Read a pole-pair file: two tab-separated columns, ``#`` comments."""
    pairs: list[tuple[str, str]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read pair file {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise DataError(f"{path}:{lineno}: expected two tab-separated poles")
            pairs.append((cols[0], cols[1]))
    if not pairs:
        raise DataError(f"no pairs in {path!r}")
    return pairs


def registry_record(registry: FrameRegistry) -> dict:
    """Audit record: kept frames (id and poles) and dropped pairs with reasons."""
    return {
        "frames": [
            {"id": f.id, "pole_minus": f.pole_minus, "pole_plus": f.pole_plus}
            for f in registry.frames
        ],
        "dropped": [
            {"pair": list(pair), "reason": reason} for pair, reason in registry.dropped
        ],
    }


def registry_to_json(registry: FrameRegistry) -> str:
    """The audit record as JSON text, without provenance."""
    return json.dumps(registry_record(registry), indent=2, sort_keys=False) + "\n"
