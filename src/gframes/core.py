"""The g-frame data model and its basic operations.

A g-frame on H = C^d is a finite family of operators Lambda_i : H -> H_i,
given as d_i x d blocks. A GFrame stores the stacked analysis matrix T
and its row partition; its blocks are row views of T, built the first
time they are read. The frame operator is S = T* T, formed by
`kernel.gram` from one symmetric real product over T's real view, with
no conjugate copy of T and exactly Hermitian; the optimal frame bounds
are its extreme eigenvalues. Each frame factors only as far as its
readers look, each factorization once, on first use: its bounds and
classification read the eigenvalues of S, and S itself near S = I, a
Parseval or g-ONB verdict reads S and factors nothing, and every reader
of vectors (a tall frame's canonical dual, S^-1 and the decompositions)
reads the one thin SVD of T. No eigenvector of S is computed, so S^-1
carries k(T) u, not k(S) u. A square T's dual is T^-*, one LU solve.
Duals, rescalings and decomposition components are each one product or
row scaling of T, and the new frame keeps that product as its T, with
no copy; `from_stacked` copies and checks caller input. Every g-frame
induces an ordinary vector frame by pulling the standard basis of each
H_i back through the block adjoints, and all frame-theoretic properties
transfer across that bridge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BadPartition, HypothesisError, NonFinite, ShapeMismatch
from .kernel import (
    _ArrayValue,
    as_matrix,
    frobenius_norm,
    gram,
)
from .tolerances import TAU_CLASS, TAU_DUAL, TAU_RANK, Margin

_DIRECT_SVD_ROWS = 256
"""A frame whose T has more rows takes its SVD by CholeskyQR2. On one Xeon
core, one OpenBLAS thread, a direct SVD was faster below about 100-200
rows for d = 16-48 and 280 for d = 8; at 3000 x 32, 7.9 ms against 2.2 ms."""


@dataclass(frozen=True, eq=False, init=False)
class GFrame:
    """An ordered family of blocks Lambda_i : C^h_dim -> C^d_i.

    The stored form is the stacked analysis matrix T (sum d_i x h_dim,
    complex128, read-only) with its row partition. `blocks` are
    read-only row views of T, built on first read. The frame operator
    S = T* T (one symmetric real product, `kernel.gram`), the bounds
    read off its eigenvalues and the thin SVD of T are each computed
    once, on first use, and only when read: bounds and verdicts need
    the eigenvalues alone, every reader of vectors (S^-1 too) the SVD.
    They are no fields, so they take no part in repr, equality, hashing
    or pickling. h_dim is stored as a Python int. Two frames are equal
    when h_dim, partition, label and every entry of T agree.
    """

    h_dim: int
    label: str | None = None

    def __init__(self, h_dim: int, blocks, label: str | None = None):
        try:
            size = operator.index(h_dim)
        except TypeError:
            size = 0
        if isinstance(h_dim, bool) or size < 1:
            raise ShapeMismatch(f"h_dim must be a positive integer, got {h_dim!r}")
        h_dim = size
        blocks = [np.asarray(b) for b in blocks]
        if not blocks:
            raise ShapeMismatch("a g-frame needs at least one block")
        shapes = [b.shape for b in blocks]
        # each distinct shape is checked once; the first block with a bad one is named
        bad = [s for s in set(shapes) if _block_shape_defect(s, h_dim)]
        if bad:
            i = min(shapes.index(s) for s in bad)
            raise ShapeMismatch(f"block {i} {_block_shape_defect(shapes[i], h_dim)}")
        # unsafe casting converts exactly what np.array(b, dtype=complex) does
        stacked = np.concatenate(blocks, dtype=np.complex128, casting="unsafe")
        self._store(h_dim, stacked, tuple(s[0] for s in shapes), label)
        finite_rows = np.isfinite(self._stacked).all(axis=1)
        if not finite_rows.all():
            i = self.per_row(np.arange(self.n_blocks))[np.argmin(finite_rows)]
            raise NonFinite(f"block {i} contains NaN or infinite entries")

    @classmethod
    def from_stacked(cls, stacked, partition, label: str | None = None) -> "GFrame":
        """The family whose analysis matrix is a checked copy of `stacked`,
        cut into blocks of the given row sizes."""
        t = as_matrix(stacked, "analysis matrix")
        try:  # integer sizes only, as for h_dim: no bool, float or str
            sizes = [p if isinstance(p, bool) else operator.index(p) for p in partition]
        except TypeError:
            sizes = None
        if (sizes is None or np.ndim(partition) != 1
                or any(isinstance(p, bool) or p < 1 for p in sizes) or sum(sizes) != t.shape[0]):
            shown = partition if sizes is None else sizes
            raise BadPartition(f"partition {shown} does not tile {t.shape[0]} rows")
        frame = object.__new__(cls)
        frame._store(t.shape[1], t, tuple(sizes), label)
        return frame

    def _with_rows(self, t: np.ndarray, label: str | None = None) -> "GFrame":
        """The frame with this partition whose analysis matrix is `t`, a
        product the library has just computed: kept and frozen, not copied."""
        if not np.isfinite(t).all():
            raise NonFinite("analysis matrix contains NaN or infinite entries")
        frame = object.__new__(type(self))
        frame._store(t.shape[1], t, self._partition, label)
        return frame

    def _store(self, h_dim: int, stacked: np.ndarray, sizes: tuple[int, ...], label) -> None:
        stacked.flags.writeable = False
        object.__setattr__(self, "h_dim", h_dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "_partition", sizes)

    def __eq__(self, other):
        if not isinstance(other, GFrame):
            return NotImplemented
        return (self.h_dim, self._partition, self.label) == (
            other.h_dim, other._partition, other.label
        ) and bool(np.array_equal(self._stacked, other._stacked))

    def __hash__(self) -> int:
        # T is left out: equal frames still hash equally, and 0.0 == -0.0
        return hash((self.h_dim, self._partition, self.label))

    def __reduce__(self):
        # rebuild from T, so a copy is frozen again and starts with no cache
        return (self.from_stacked, (self._stacked, self._partition, self.label))

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only row views of T, one per block."""
        ends = np.cumsum(self._partition).tolist()
        return tuple(self._stacked[e - p:e] for p, e in zip(self._partition, ends))

    @cached_property
    def _operator(self) -> np.ndarray:
        """S = T* T, exactly Hermitian by construction; read-only.
        NonFinite when a finite T has entries so large that S overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = gram(self._stacked)
        if not np.isfinite(s).all():
            raise NonFinite("frame operator S = T* T overflows: entries of T are too large")
        s.flags.writeable = False
        return s

    @cached_property
    def _bounds(self) -> FrameBounds:
        """Optimal bounds and classification, read off the eigenvalues of
        S alone. Always this one factorization, whatever else has run, so
        the bounds never depend on the order of calls."""
        return _spectrum_bounds(np.linalg.eigvalsh(self._operator), self._operator)

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (u, s, vh) of T, s descending; read-only. A frame with
        more than `_DIRECT_SVD_ROWS` rows, and more rows than h_dim, takes
        it from `_cholesky_qr2_svd`; any other T is factored directly, and
        so is one whose Cholesky fails (k(S) near 1/eps)."""
        t = self._stacked
        tall = t.shape[0] > max(t.shape[1], _DIRECT_SVD_ROWS) and self._bounds.is_frame
        factors = tall and _cholesky_qr2_svd(t, self._operator)
        u, s, vh = factors or np.linalg.svd(t, full_matrices=False)
        u.flags.writeable = s.flags.writeable = vh.flags.writeable = False
        return u, s, vh

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


def _block_shape_defect(shape: tuple, h_dim: int) -> str | None:
    """What is wrong with a block of this shape, or None for a d_i x h_dim block."""
    if len(shape) != 2:
        return f"must be 2-dimensional, got ndim={len(shape)}"
    if min(shape) < 1:
        return f"must be non-empty, got shape {shape}"
    if shape[1] != h_dim:
        return f"has {shape[1]} columns, expected h_dim={h_dim}"
    return None


def _cholesky_qr2_svd(t: np.ndarray, s: np.ndarray):
    """Thin SVD of a tall T from S = T* T by CholeskyQR2 (Fukaya,
    Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014), or None if a
    Cholesky fails. Q1 = T R1^-1 with R1 = chol(S)* is orthonormal only
    up to eps k(S), and R2 = chol(Q1* Q1)* restores it; the SVD u_R s vh
    of R2 R1 gives u = Q1 (R2^-1 u_R). `inv` of the d x d triangular
    factors stands in for the triangular solve that numpy lacks."""
    try:
        r1 = np.linalg.cholesky(s).conj().T
        q1 = t @ np.linalg.inv(r1)
        r2 = np.linalg.cholesky(gram(q1)).conj().T
    except np.linalg.LinAlgError:
        return None
    u_r, sv, vh = np.linalg.svd(r2 @ r1)
    return q1 @ (np.linalg.inv(r2) @ u_r), sv, vh


def scale_blocks(frame: GFrame, factors) -> GFrame:
    """Blockwise scalar rescaling {c_i Lambda_i}."""
    c = np.asarray(factors, dtype=np.complex128).reshape(-1)
    if c.size != frame.n_blocks:
        raise ShapeMismatch(
            f"{c.size} factors for {frame.n_blocks} blocks"
        )
    if not np.isfinite(c).all():  # rejected before inf * 0 can form a NaN
        raise NonFinite("analysis matrix contains NaN or infinite entries")
    return frame._with_rows(frame.per_row(c)[:, None] * frame.analysis_matrix(), frame.label)


class FrameClass(Enum):
    """The frame verdict of `_classify_bounds`: PARSEVAL is the verdict of
    `is_parseval`, and PARSEVAL, TIGHT and G_FRAME are frames. NOT_BESSEL
    cannot occur for a finite family; kept so reports state the lattice."""
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

    @property
    def is_frame(self) -> bool:
        """The lower bound clears the rank floor, as `classification` records."""
        return self.classification not in (FrameClass.NOT_BESSEL, FrameClass.BESSEL_ONLY)


def _parseval_margin(s: np.ndarray) -> Margin:
    """The one Parseval verdict: ||S - I||_F against TAU_CLASS for a frame
    operator S, so each eigenvalue is within TAU_CLASS of 1; factors nothing."""
    return Margin.defect(frobenius_norm(s - np.eye(s.shape[0])), TAU_CLASS)


def _classify_bounds(lower: float, upper: float, s: np.ndarray) -> FrameClass:
    """The one frame verdict on the bounds of S: A above the rank floor, then
    Parseval, then tightness. ||S - I||_F >= max|lambda - 1|, so S is read only
    while the extreme eigenvalues, allowed twice TAU_CLASS, leave Parseval possible."""
    if not Margin.above_floor(lower):
        return FrameClass.BESSEL_ONLY
    if (Margin.defect(max(abs(lower - 1.0), abs(upper - 1.0)), 2.0 * TAU_CLASS)
            and _parseval_margin(s)):
        return FrameClass.PARSEVAL
    if Margin.defect(upper - lower, TAU_CLASS, upper):
        return FrameClass.TIGHT
    return FrameClass.G_FRAME


def _spectrum_bounds(eigs: np.ndarray, s: np.ndarray) -> FrameBounds:
    """Optimal bounds from the ascending spectrum `eigs` of the frame operator `s`."""
    lower = float(max(eigs[0], 0.0))
    upper = float(max(eigs[-1], 0.0))
    return FrameBounds(lower, upper, _classify_bounds(lower, upper, s))


def frame_operator(frame: GFrame) -> np.ndarray:
    """S = sum_i Lambda_i* Lambda_i = T* T, exactly Hermitian.

    The frame's own read-only copy, computed once per frame.
    """
    return frame._operator


def frame_bounds(frame: GFrame) -> FrameBounds:
    """Optimal frame bounds from the eigenvalues of the frame operator.

    The frame's own value, computed once per frame.
    """
    return frame._bounds


def _require_frame(frame: GFrame) -> FrameBounds:
    """The frame's bounds, unless it is no frame. The error names the floor,
    not A_Lambda: below the floor that is roundoff, and printing it would
    make the message change with any rounding change."""
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise HypothesisError("A_Lambda > rank floor", {"threshold": TAU_RANK})
    return bounds


def _inverse_frame_operator(frame: GFrame) -> np.ndarray:
    """S^-1 = V diag(1/s^2) V* from the frame's thin SVD of T, for a frame
    its caller has required; its error grows as k(T) u, not k(S) u."""
    _, s, vh = frame._svd
    return gram(vh / s[:, None])


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


def _is_square(frame: GFrame) -> bool:
    return sum(frame.partition) == frame.h_dim


def is_parseval(frame: GFrame) -> bool:
    """The verdict of the PARSEVAL label, read without the eigenvalues of S."""
    return _parseval_margin(frame._operator).holds


def is_g_onb(frame: GFrame) -> bool:
    """T is square and the family is Parseval: T is unitary."""
    return _is_square(frame) and is_parseval(frame)


def is_g_riesz(frame: GFrame) -> bool:
    """T is square and the family is a frame; reads the eigenvalues of S."""
    return _is_square(frame) and frame_bounds(frame).is_frame


def classify(frame: GFrame) -> ClassificationReport:
    """Full classification of a family via its stacked analysis matrix.

    Every finite family is g-Bessel. The family is a g-frame iff the
    frame operator is invertible, g-complete iff T has full column
    rank, g-Riesz iff additionally sum(d_i) = d, and a g-ONB iff T is
    unitary. For g-Riesz families the optimal synthesis bounds are the
    extreme squared singular values of T; T is then square, so they are
    the extreme eigenvalues of S and are read from its spectrum. The
    whole report costs the eigenvalues of S, with no eigenvectors, and
    one ||S - I||_F near S = I, read by the bounds' PARSEVAL label that
    the g-ONB verdict shares; g-ONB => Parseval => tight => g-frame.
    """
    # S has h_dim eigenvalues, so T has full column rank (g-complete)
    # exactly when the smallest clears the rank floor (g-frame)
    bounds = frame_bounds(frame)
    is_frame = bounds.is_frame
    is_riesz = is_g_riesz(frame)
    return ClassificationReport(
        is_g_bessel=True,
        is_g_frame=is_frame,
        is_g_complete=is_frame,
        is_g_riesz=is_riesz,
        is_g_onb=is_riesz and bounds.classification is FrameClass.PARSEVAL,
        bounds=bounds,
        riesz_bounds=(bounds.lower, bounds.upper) if is_riesz else None,
    )


def canonical_dual(frame: GFrame) -> GFrame:
    """The canonical dual family {Lambda_i S^(-1)}.

    Requires an actual g-frame; the dual's optimal bounds are the
    reciprocals (1/B, 1/A) of the input's, swapped. A square T gives
    T S^-1 = T^-*, one LU solve of T*, whose residual T* D - I is the
    conjugate transpose of the duality defect D* T - I. A tall T gives
    U diag(1/s) V* from the frame's thin SVD T = U diag(s) V*. Either
    way the dual is formed without S: its error grows as k(T) u, not
    k(S) u.
    """
    _require_frame(frame)
    label = f"canonical dual of {frame.label}" if frame.label else None
    if _is_square(frame):
        return frame._with_rows(np.linalg.inv(frame.analysis_matrix().conj().T), label)
    u, s, vh = frame._svd
    return frame._with_rows(u @ (vh / s[:, None]), label)


@dataclass(frozen=True, eq=False)
class VectorFrame(_ArrayValue):
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
        idx = np.asarray(self.indices, dtype=np.int64).reshape(len(self.indices), 2)
        if len(idx) != v.shape[0]:
            raise ShapeMismatch(
                f"{len(idx)} index pairs for {v.shape[0]} vectors"
            )
        prev, nxt = idx[:-1], idx[1:]
        increasing = (prev[:, 0] < nxt[:, 0]) | (
            (prev[:, 0] == nxt[:, 0]) & (prev[:, 1] < nxt[:, 1])
        )
        if not increasing.all():
            raise ShapeMismatch("index pairs must be strictly increasing")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "indices", tuple(map(tuple, idx.tolist())))

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
        indices=np.column_stack((block_of_row, row_in_block)),
    )


def gframe_from_vector_frame(vframe: VectorFrame, partition) -> GFrame:
    """Regroup a vector family into g-frame blocks of the given row sizes."""
    return GFrame.from_stacked(vframe.analysis_matrix(), partition)


def vector_frame_operator(vframe: VectorFrame) -> np.ndarray:
    """sum_j psi_j psi_j* for an ordinary vector family: with the vectors
    as the rows of V, the conjugate of V* V."""
    return gram(vframe.vectors).conj()


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


def _duality_margin(frame: GFrame, dual: GFrame) -> Margin:
    """The one duality verdict: the duality defect against TAU_DUAL."""
    return Margin.defect(duality_defect(frame, dual), TAU_DUAL)


def verify_duality(frame: GFrame, dual: GFrame) -> bool:
    """True iff the pair reconstructs the identity within TAU_DUAL."""
    return _duality_margin(frame, dual).holds
