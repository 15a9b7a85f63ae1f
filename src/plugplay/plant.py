"""Multi-channel LTI plant: channel storage, normalization, aggregation.

The plant is ``xdot = A x + sum_i B_i u_i``, ``y_i = C_i x`` with one
input/output channel per agent.  Channels are normalized to unit norm
maps; the original norms are kept as scales so external signals can be
recovered (the normalized plant sees ``|B_i| u_i`` as input and
``y_i / |C_i|`` as output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .matlib import _stack, as_matrix, induced_2norms

__all__ = [
    "Channel",
    "PlantModel",
    "normalize_channel",
    "normalize_plant",
    "aggregate",
    "is_controllable",
    "is_observable",
]

# Relative rank threshold for the Kalman tests.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class Channel:
    """One input/output channel: B (n x m), C (p x n), plus stored norms."""

    id: int
    B: np.ndarray
    C: np.ndarray
    input_scale: float = 1.0
    output_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "B", as_matrix(self.B, f"B_{self.id}"))
        object.__setattr__(self, "C", as_matrix(self.C, f"C_{self.id}"))
        if self.input_scale <= 0 or self.output_scale <= 0:
            raise ValueError("channel scales must be positive")

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class PlantModel:
    """State matrix A plus a list of channels with consistent dimensions."""

    A: np.ndarray
    channels: tuple[Channel, ...]

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "channels", tuple(self.channels))
        ids = [c.id for c in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError("channel ids must be distinct")
        n = a.shape[0]
        for c in self.channels:
            if c.B.shape[0] != n:
                raise ValueError(f"channel {c.id}: B has {c.B.shape[0]} rows, expected {n}")
            if c.C.shape[1] != n:
                raise ValueError(f"channel {c.id}: C has {c.C.shape[1]} cols, expected {n}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(c.id for c in self.channels))

    def channel(self, cid: int) -> Channel:
        for c in self.channels:
            if c.id == cid:
                return c
        raise KeyError(f"no channel with id {cid}")


def _normalized(maps) -> tuple[Channel, ...]:
    """One channel per ``(id, B, C, input_scale, output_scale)``, with B and
    C rescaled to unit induced 2-norm and their norms folded into the scales.

    One :func:`induced_2norms` call takes all the norms.  A zero map passes
    through unchanged, so a degenerate channel never divides by zero.
    """
    maps = list(maps)
    norms = induced_2norms([m for _, b, c, *_ in maps for m in (b, c)]).tolist()
    out = []
    for (cid, b, c, sb, sc), nb, nc in zip(maps, norms[::2], norms[1::2]):
        b, sb = (b / nb, sb * nb) if nb > 0 else (b, sb)
        c, sc = (c / nc, sc * nc) if nc > 0 else (c, sc)
        out.append(Channel(cid, b, c, sb, sc))
    return tuple(out)


def normalize_channel(c: Channel) -> Channel:
    """Rescale B and C to unit induced 2-norm, recording the norms."""
    return _normalized([(c.id, c.B, c.C, c.input_scale, c.output_scale)])[0]


def normalize_plant(p: PlantModel) -> PlantModel:
    """Normalize every channel of the plant, as :func:`normalize_channel` does."""
    maps = [(c.id, c.B, c.C, c.input_scale, c.output_scale) for c in p.channels]
    return PlantModel(p.A, _normalized(maps))


def aggregate(p: PlantModel, active: Iterable[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stack B horizontally and C vertically over active channels.

    Channels are taken in ascending id order; `active` defaults to all.
    """
    if active is None:
        ids = p.ids
    else:
        ids = tuple(sorted(set(int(i) for i in active)))
        unknown = set(ids) - set(p.ids)
        if unknown:
            raise ValueError(f"unknown channel ids {sorted(unknown)}")
    chans = [p.channel(i) for i in ids]
    n = p.n
    if not chans:
        return np.zeros((n, 0)), np.zeros((0, n))
    b = np.hstack([c.B for c in chans])
    c = np.vstack([c.C for c in chans])
    return b, c


def is_controllable(a, b, *, check_finite: bool = True):
    """Kalman rank test: rank [B, AB, ..., A^(n-1) B] == n.

    Stacks ``(k, n, n)`` of A and ``(k, n, m)`` of B give one answer per
    member, as a boolean array, from one stacked SVD.
    ``check_finite=False`` skips the NaN/Inf test of checked arrays.
    """
    if check_finite:
        a, b = _stack(a, "A"), _stack(b, "B")
    else:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] != a.shape[-2] or b.shape[-2] != a.shape[-1] or a.shape[:-2] != b.shape[:-2]:
        raise ValueError("A must be square and B must have matching rows")
    n = a.shape[-1]
    if b.shape[-1] == 0:
        return False if a.ndim == 2 else np.zeros(a.shape[0], dtype=bool)
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    sv = np.linalg.svd(np.concatenate(blocks, axis=-1), compute_uv=False)
    rank = (sv > RANK_RTOL * sv[..., :1]).sum(axis=-1)
    return bool(rank == n) if a.ndim == 2 else rank == n


def is_observable(a, c) -> bool:
    """Observability by duality: (A, C) observable iff (A^T, C^T) controllable."""
    a = as_matrix(a, "A")
    c = as_matrix(c, "C")
    return is_controllable(a.T, c.T, check_finite=False)
