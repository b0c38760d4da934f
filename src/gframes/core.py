"""The g-frame data model and its basic operations.

A g-frame on H = C^d is a finite family of operators Lambda_i : H -> H_i,
given as d_i x d blocks. A GFrame stores the stacked analysis matrix T
and its row partition, and its blocks are row views of T. The frame
operator is S = T* T, and the optimal frame bounds are its extreme
eigenvalues; duals, rescalings and the induced vector frame are each
one product or row scaling of T. Every g-frame induces an ordinary
vector frame by pulling the standard basis of each H_i back through the
block adjoints, and all frame-theoretic properties transfer across that
bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadPartition, NotAFrame, ShapeMismatch
from .kernel import (
    as_matrix,
    frobenius_norm,
    hermitian_part,
)
from .tolerances import TAU_CLASS, TAU_DUAL, TAU_RANK


@dataclass(frozen=True)
class GFrame:
    """An ordered family of blocks Lambda_i : C^h_dim -> C^d_i.

    The stored form is the stacked analysis matrix T (sum d_i x h_dim,
    complex128, read-only) with its row partition; `blocks` are
    read-only row views of T. Blocks are validated and stacked once at
    construction; instances are immutable values.
    """

    h_dim: int
    blocks: tuple[np.ndarray, ...]
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.h_dim, int) or self.h_dim < 1:
            raise ShapeMismatch(f"h_dim must be a positive integer, got {self.h_dim!r}")
        blocks = tuple(
            as_matrix(b, name=f"block {i}") for i, b in enumerate(self.blocks)
        )
        if not blocks:
            raise ShapeMismatch("a g-frame needs at least one block")
        for i, b in enumerate(blocks):
            if b.shape[1] != self.h_dim:
                raise ShapeMismatch(
                    f"block {i} has {b.shape[1]} columns, expected h_dim={self.h_dim}"
                )
        self._store(np.vstack(blocks), [b.shape[0] for b in blocks])

    @classmethod
    def from_blocks(cls, blocks, label: str | None = None) -> "GFrame":
        blocks = [np.atleast_2d(np.asarray(b)) for b in blocks]
        if not blocks:
            raise ShapeMismatch("a g-frame needs at least one block")
        return cls(h_dim=int(blocks[0].shape[1]), blocks=tuple(blocks), label=label)

    @classmethod
    def from_stacked(cls, stacked, partition, label: str | None = None) -> "GFrame":
        """The family whose analysis matrix is `stacked`, cut into blocks of
        the given row sizes."""
        t = as_matrix(stacked, "analysis matrix")
        sizes = [int(p) for p in partition]
        if any(p < 1 for p in sizes) or sum(sizes) != t.shape[0]:
            raise BadPartition(f"partition {sizes} does not tile {t.shape[0]} rows")
        frame = object.__new__(cls)
        object.__setattr__(frame, "h_dim", t.shape[1])
        object.__setattr__(frame, "label", label)
        frame._store(t, sizes)
        return frame

    def _store(self, stacked: np.ndarray, sizes) -> None:
        stacked.flags.writeable = False
        ends = np.cumsum(sizes).tolist()
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "_partition", tuple(sizes))
        object.__setattr__(
            self, "blocks", tuple(stacked[e - p:e] for p, e in zip(sizes, ends))
        )

    @property
    def n_blocks(self) -> int:
        return len(self._partition)

    @property
    def partition(self) -> tuple[int, ...]:
        return self._partition

    def analysis_matrix(self) -> np.ndarray:
        """The stacked matrix T with S = T* T."""
        return self._stacked

    def per_row(self, values) -> np.ndarray:
        """One value per block, repeated over that block's rows of T."""
        return np.repeat(np.asarray(values), self._partition)


def scale_blocks(frame: GFrame, factors) -> GFrame:
    """Blockwise scalar rescaling {c_i Lambda_i}."""
    c = np.asarray(factors, dtype=np.complex128).reshape(-1)
    if c.size != frame.n_blocks:
        raise ShapeMismatch(
            f"{c.size} factors for {frame.n_blocks} blocks"
        )
    return GFrame.from_stacked(
        frame.per_row(c)[:, None] * frame.analysis_matrix(),
        frame.partition,
        label=frame.label,
    )


class FrameClass(Enum):
    # NOT_BESSEL cannot occur for a finite family; kept so reports can
    # state the full classification lattice.
    NOT_BESSEL = "NotBessel"
    BESSEL_ONLY = "BesselOnly"
    G_FRAME = "GFrame"
    TIGHT = "TightGFrame"
    PARSEVAL = "ParsevalGFrame"


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds A = lower, B = upper of the frame inequality."""

    lower: float
    upper: float
    classification: FrameClass

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ShapeMismatch(
                f"invalid bounds ({self.lower}, {self.upper})"
            )


def _classify_bounds(lower: float, upper: float) -> FrameClass:
    if lower <= TAU_RANK:
        return FrameClass.BESSEL_ONLY
    if upper - lower <= TAU_CLASS * upper:
        if abs(upper - 1.0) <= TAU_CLASS:
            return FrameClass.PARSEVAL
        return FrameClass.TIGHT
    return FrameClass.G_FRAME


def _spectrum_bounds(eigs: np.ndarray) -> FrameBounds:
    """Optimal bounds from the ascending spectrum of a frame operator."""
    lower = float(max(eigs[0], 0.0))
    upper = float(max(eigs[-1], 0.0))
    return FrameBounds(lower, upper, _classify_bounds(lower, upper))


def frame_operator(frame: GFrame) -> np.ndarray:
    """S = sum_i Lambda_i* Lambda_i = T* T, symmetrized against roundoff."""
    t = frame.analysis_matrix()
    return hermitian_part(t.conj().T @ t)


def frame_bounds(frame: GFrame) -> FrameBounds:
    """Optimal frame bounds from the spectrum of the frame operator."""
    return _spectrum_bounds(np.linalg.eigvalsh(frame_operator(frame)))


@dataclass(frozen=True)
class ClassificationReport:
    is_g_bessel: bool
    is_g_frame: bool
    is_g_complete: bool
    is_g_riesz: bool
    is_g_onb: bool
    bounds: FrameBounds
    riesz_bounds: tuple[float, float] | None

    @property
    def is_tight(self) -> bool:
        return self.bounds.classification in (FrameClass.TIGHT, FrameClass.PARSEVAL)

    @property
    def is_parseval(self) -> bool:
        return self.bounds.classification is FrameClass.PARSEVAL


def classify(frame: GFrame) -> ClassificationReport:
    """Full classification of a family via its stacked analysis matrix.

    Every finite family is g-Bessel. The family is a g-frame iff the
    frame operator is invertible, g-complete iff T has full column
    rank, g-Riesz iff additionally sum(d_i) = d, and a g-ONB iff T is
    unitary. For g-Riesz families the optimal synthesis bounds are the
    extreme squared singular values of T.
    """
    t = frame.analysis_matrix()
    s = frame_operator(frame)
    # derive rank facts from the same spectrum that produced the bounds,
    # so the report booleans can never disagree with each other
    eigs = np.linalg.eigvalsh(s)
    bounds = _spectrum_bounds(eigs)
    rank = int(np.count_nonzero(eigs > TAU_RANK))
    square = t.shape[0] == frame.h_dim
    is_frame = bounds.lower > TAU_RANK
    is_complete = rank == frame.h_dim
    is_riesz = square and is_frame
    riesz_bounds = None
    if is_riesz:
        sv = np.linalg.svd(t, compute_uv=False)
        riesz_bounds = (float(sv[-1] ** 2), float(sv[0] ** 2))
    gram_defect = frobenius_norm(s - np.eye(frame.h_dim))
    is_onb = square and gram_defect <= TAU_CLASS
    return ClassificationReport(
        is_g_bessel=True,
        is_g_frame=is_frame,
        is_g_complete=is_complete,
        is_g_riesz=is_riesz,
        is_g_onb=is_onb,
        bounds=bounds,
        riesz_bounds=riesz_bounds,
    )


def canonical_dual(frame: GFrame) -> GFrame:
    """The canonical dual family {Lambda_i S^(-1)}.

    Requires an actual g-frame; the dual's optimal bounds are the
    reciprocals (1/B, 1/A) of the input's, swapped.
    """
    s = frame_operator(frame)
    eigs, vecs = np.linalg.eigh(s)
    if eigs[0] <= TAU_RANK:
        raise NotAFrame(
            f"cannot form a dual: smallest frame-operator eigenvalue {eigs[0]:.3e}"
        )
    s_inv = (vecs * (1.0 / eigs)) @ vecs.conj().T
    label = f"canonical dual of {frame.label}" if frame.label else None
    return GFrame.from_stacked(frame.analysis_matrix() @ s_inv, frame.partition, label)


@dataclass(frozen=True)
class VectorFrame:
    """An ordered finite vector family in C^h_dim.

    Row j of `vectors` is the j-th vector; `indices` records the (block,
    row) pair each vector came from, in strictly increasing
    lexicographic order.
    """

    h_dim: int
    vectors: np.ndarray
    indices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        v = as_matrix(self.vectors, "vectors")
        if v.shape[1] != self.h_dim:
            raise ShapeMismatch(
                f"vectors have {v.shape[1]} entries, expected h_dim={self.h_dim}"
            )
        idx = tuple((int(i), int(k)) for i, k in self.indices)
        if len(idx) != v.shape[0]:
            raise ShapeMismatch(
                f"{len(idx)} index pairs for {v.shape[0]} vectors"
            )
        if any(idx[j] >= idx[j + 1] for j in range(len(idx) - 1)):
            raise ShapeMismatch("index pairs must be strictly increasing")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def analysis_matrix(self) -> np.ndarray:
        """Rows are f -> <f, psi_j>, i.e. the conjugated vectors."""
        return self.vectors.conj()


def induced_frame(frame: GFrame) -> VectorFrame:
    """The vector family psi_(i,k) = Lambda_i* e_(i,k).

    Pulling the standard basis of each H_i back through the adjoints
    gives one vector per (block, row) pair: the conjugated block rows.
    The induced family has the same analysis matrix as the g-frame, so
    bounds and classification transfer exactly.
    """
    block_of_row = frame.per_row(np.arange(frame.n_blocks))
    first_row = frame.per_row(np.cumsum(frame.partition) - frame.partition)
    row_in_block = np.arange(block_of_row.size) - first_row
    return VectorFrame(
        h_dim=frame.h_dim,
        vectors=frame.analysis_matrix().conj(),
        indices=tuple(zip(block_of_row.tolist(), row_in_block.tolist())),
    )


def gframe_from_vector_frame(vframe: VectorFrame, partition) -> GFrame:
    """Regroup a vector family into g-frame blocks of the given row sizes."""
    return GFrame.from_stacked(vframe.analysis_matrix(), partition)


def vector_frame_operator(vframe: VectorFrame) -> np.ndarray:
    """sum_j psi_j psi_j* for an ordinary vector family."""
    return hermitian_part(vframe.vectors.T @ vframe.vectors.conj())


def _require_same_shape(frame: GFrame, other: GFrame, what: str = "families") -> None:
    if frame.h_dim != other.h_dim or frame.partition != other.partition:
        raise ShapeMismatch(
            f"{what} must share h_dim and block shapes: "
            f"({frame.h_dim}, {frame.partition}) vs ({other.h_dim}, {other.partition})"
        )


def duality_defect(frame: GFrame, dual: GFrame) -> float:
    """Frobenius distance of sum_i D_i* Lambda_i from the identity."""
    _require_same_shape(frame, dual)
    acc = dual.analysis_matrix().conj().T @ frame.analysis_matrix()
    return frobenius_norm(acc - np.eye(frame.h_dim))


def verify_duality(frame: GFrame, dual: GFrame, tol: float = TAU_DUAL) -> bool:
    """True iff the pair reconstructs the identity within `tol`."""
    return duality_defect(frame, dual) <= tol
