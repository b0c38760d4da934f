"""Controlled and weighted g-frames.

A control operator C twists the frame inequality into the form
<S C* f, f>; the twisted family is a frame exactly when C is positive
and commutes with S. Weight sequences scale blocks instead, and the
weighted frame property can be read off any of six equivalent
statements. Both notions reduce to multipliers in the right basis, and
this module keeps those reductions explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core, kernel, multipliers
from .core import FrameBounds, GFrame, VectorFrame, _require_frame, _spectrum_bounds
from .errors import HypothesisError, NonFinite, NonPositiveInput, ShapeMismatch
from .kernel import _ArrayValue
from .multipliers import WeightSequence, _weights_for
from .tolerances import TAU_COMM, TAU_EIG, TAU_EXACT, TAU_INDUCED, TAU_INV, TAU_RANK, Margin


@dataclass(frozen=True, eq=False)
class ControlOperator(_ArrayValue):
    """An invertible operator on H with cached structure flags.

    `bounds` carries the extreme eigenvalues when the operator is
    self-adjoint and is None otherwise; `norm` is ||C||.
    """

    matrix: np.ndarray
    is_self_adjoint: bool = field(init=False)
    is_positive: bool = field(init=False)
    bounds: tuple[float, float] | None = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        m = kernel.as_matrix(self.matrix, "control operator")
        if m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"control operator must be square, got {m.shape}")
        self_adjoint = kernel.self_adjoint(m).holds
        if self_adjoint:
            # |eigenvalues| of (C + C*)/2 are within TAU_HERM/2 of C's singular values
            eigs, lowest = kernel.hermitian_eigenvalues(m)
            positive, bounds, sv = lowest.holds, (float(eigs[0]), float(eigs[-1])), np.abs(eigs)
        else:
            positive, bounds, sv = False, None, np.linalg.svd(m, compute_uv=False)
        kernel.require_invertible(sv, "sigma_min(C)^2")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "is_self_adjoint", self_adjoint)
        object.__setattr__(self, "is_positive", positive)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "norm", float(sv.max()))

    @property
    def h_dim(self) -> int:
        return self.matrix.shape[0]


def _require_control_shape(frame: GFrame, control: ControlOperator) -> None:
    if control.h_dim != frame.h_dim:
        raise ShapeMismatch(
            f"control operator acts on dimension {control.h_dim}, frame on {frame.h_dim}"
        )


def controlled_frame_operator(frame: GFrame, control: ControlOperator) -> np.ndarray:
    """S_C = S C*, the operator behind the controlled frame form."""
    _require_control_shape(frame, control)
    return core.frame_operator(frame) @ control.matrix.conj().T


@dataclass(frozen=True)
class ControlledBounds:
    """Extremes of the controlled form <S C* f, f>.

    When S C* is not self-adjoint the form is not real-valued; the
    family is then not a controlled frame and `form_self_adjoint` is
    False, with the extremes reported for the Hermitian part.
    """

    lower: float
    upper: float
    is_controlled_frame: bool
    form_self_adjoint: bool


def controlled_bounds(frame: GFrame, control: ControlOperator) -> ControlledBounds:
    s_c = controlled_frame_operator(frame, control)
    self_adjoint = kernel.self_adjoint(s_c).holds
    eigs, lowest = kernel.hermitian_eigenvalues(s_c)
    return ControlledBounds(float(eigs[0]), float(eigs[-1]), self_adjoint and lowest.holds,
                            self_adjoint)


class CommutationResult(NamedTuple):
    holds: bool
    defect: float


def _commutation_margin(frame: GFrame, control: ControlOperator) -> Margin:
    """||S C* - C S||_F against TAU_COMM (1 + ||S|| ||C||)."""
    s = core.frame_operator(frame)
    c = control.matrix
    # ||S|| = lambda_max(S), read from the frame's spectrum
    return Margin.relative(kernel.frobenius_norm(s @ c.conj().T - c @ s), TAU_COMM,
                           core.frame_bounds(frame).upper * control.norm)


def verify_commutation(frame: GFrame, control: ControlOperator) -> CommutationResult:
    """Whether S C* = C S within a scale-relative tolerance."""
    defect = _commutation_margin(frame, control)
    return CommutationResult(defect.holds, defect.value)


def _require_self_adjoint(control: ControlOperator) -> None:
    if not control.is_self_adjoint:
        defect = kernel.self_adjoint(control.matrix)
        raise HypothesisError("C = C*", {"||C - C*||_F": defect.value,
                                         "threshold": defect.threshold})


def _require_controlled_pair(frame: GFrame, control: ControlOperator) -> None:
    """The right side of the controlled-frame criterion, or the error naming
    the part that fails: C self-adjoint, the family a g-frame, C positive,
    C commuting with S. `controlled_bound_arithmetic` needs all of it."""
    _require_self_adjoint(control)
    _require_frame(frame)
    if not control.is_positive:
        raise HypothesisError("lambda_min(C) > rank floor",
                              {"lambda_min(C)": control.bounds[0], "threshold": TAU_RANK})
    commutation = _commutation_margin(frame, control)
    if not commutation:
        raise HypothesisError("S C* = C S", {"||S C* - C S||_F": commutation.value,
                                             "threshold": commutation.threshold})


def controlled_equivalence(frame: GFrame, control: ControlOperator) -> tuple[bool, bool]:
    """Both sides of the controlled-frame criterion for self-adjoint C.

    Left: the controlled form certifies. Right: the family is a
    g-frame, C is positive, and C commutes with S. The two sides agree
    for every self-adjoint invertible C.
    """
    _require_self_adjoint(control)
    lhs = controlled_bounds(frame, control).is_controlled_frame
    rhs = (
        core.frame_bounds(frame).is_frame
        and control.is_positive
        and verify_commutation(frame, control).holds
    )
    return lhs, rhs


@dataclass(frozen=True)
class DerivedBoundIntervals:
    """Bound intervals recovered from a controlled pair's data."""

    frame_operator_bounds: tuple[float, float]
    control_bounds: tuple[float, float]
    controlled_bounds: tuple[float, float]


def controlled_bound_arithmetic(m_cl: float, m_cu: float,
                                m: float, m_u: float,
                                c_l: float, c_u: float) -> DerivedBoundIntervals:
    """Propagate bounds between S, C and S_C for a commuting positive pair.

    Arguments are (controlled lower, controlled upper, frame lower,
    frame upper, control lower, control upper); all must be positive.
    """
    values = [m_cl, m_cu, m, m_u, c_l, c_u]
    if any(not (v > 0.0) for v in values):
        raise NonPositiveInput(f"all six bounds must be positive, got {values}")
    return DerivedBoundIntervals(
        frame_operator_bounds=(m_cl / c_u, m_cu / c_l),
        control_bounds=(m_cl / m_u, m_cu / m),
        controlled_bounds=(m * c_l, m_u * c_u),
    )


def induced_controlled_frame(frame: GFrame, control: ControlOperator):
    """The induced vector family together with its controlled identity.

    Returns (vector frame, holds) where holds certifies that summing
    psi_j <f, C psi_j> reproduces S_C f, evaluated as an exact matrix
    identity.
    """
    _require_control_shape(frame, control)
    vframe = core.induced_frame(frame)
    psi = vframe.vectors
    # sum_j psi_j (C psi_j)*, with the psi_j as the columns of psi.T
    acc = psi.T @ (psi.conj() @ control.matrix.conj().T)
    s_c = controlled_frame_operator(frame, control)
    holds = Margin.relative(kernel.frobenius_norm(acc - s_c), TAU_INDUCED,
                            kernel.frobenius_norm(s_c)).holds
    return vframe, holds


# -- weighted families ---------------------------------------------------------


def _positive_weights(frame: GFrame, weights) -> WeightSequence:
    w = _weights_for(frame, weights)
    if not w.is_positive:
        raise HypothesisError("w_i real and w_i > 0",
                              {"min Re w_i": float(w.values.real.min()),
                               "max|Im w_i|": float(np.abs(w.values.imag).max())})
    return w


def weighted_bounds(frame: GFrame, weights) -> FrameBounds:
    """Optimal bounds of sum_i |w_i|^2 Lambda_i* Lambda_i."""
    w = _weights_for(frame, weights)
    return core.frame_bounds(core.scale_blocks(frame, np.abs(w.values)))


@dataclass(frozen=True, eq=False)
class WeightedVectorFrame(_ArrayValue):
    """An induced vector family with one weight per vector."""

    base: VectorFrame
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.complex128, copy=True).reshape(-1)
        if w.size != len(self.base):
            raise ShapeMismatch(f"{w.size} weights for {len(self.base)} vectors")
        if not np.isfinite(w).all():
            raise NonFinite("weights contain non-finite entries")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def weighted_vector_frame_bounds(wvframe: WeightedVectorFrame) -> FrameBounds:
    """Optimal bounds of sum_j |w_j|^2 psi_j psi_j*."""
    # the operator is the conjugate of Y* Y with rows y_j = |w_j| psi_j,
    # and a conjugate has the same spectrum and the same ||S - I||_F
    y = np.abs(wvframe.weights)[:, None] * wvframe.base.vectors
    s = kernel.gram(y)
    return _spectrum_bounds(np.linalg.eigvalsh(s), s)


def induced_weighted_frame(frame: GFrame, weights) -> WeightedVectorFrame:
    """Induced vectors with the block weight replicated across each block."""
    w = _weights_for(frame, weights)
    return WeightedVectorFrame(base=core.induced_frame(frame), weights=frame.per_row(w.values))


def weight_from_control(frame: GFrame, control: ControlOperator):
    """Extract the weights a control operator induces on block ranges.

    When C acts as a scalar w_i on the range of each Lambda_i*, the pair
    (C, frame) is the weighted family in disguise. Returns the weight
    sequence and whether C equals the multiplier of the weights against
    the canonical dual.
    """
    _require_control_shape(frame, control)
    _require_self_adjoint(control)
    c = control.matrix
    extracted = []
    for i, b in enumerate(frame.blocks):
        synthesis = b.conj().T
        norm2 = float(np.vdot(synthesis, synthesis).real)
        if norm2 == 0.0:
            raise HypothesisError(f"||Lambda_{i}||_F^2 > 0", {"||Lambda_i||_F^2": norm2})
        if not np.isfinite(norm2):
            raise NonFinite(f"block {i} is too large: its squared norm overflows")
        target = c @ synthesis
        w_i = complex(np.vdot(synthesis, target) / norm2)
        residual = kernel.frobenius_norm(target - w_i * synthesis)
        scalar = Margin.relative(residual, TAU_EIG, kernel.frobenius_norm(target))
        if not scalar:
            raise HypothesisError(f"C Lambda_{i}* = w_{i} Lambda_{i}*",
                                  {"residual": residual, "threshold": scalar.threshold})
        extracted.append(w_i)
    arr = np.asarray(extracted)
    # self-adjointness forces real scalars; anything else is roundoff
    weights = WeightSequence(arr.real)
    if np.any(arr.real <= 0.0):
        raise HypothesisError("w_i > 0", {"min w_i": float(arr.real.min())})
    dual = core.canonical_dual(frame)
    recovered = multipliers.multiplier(weights, frame, dual)
    match = Margin.relative(kernel.frobenius_norm(c - recovered), TAU_INV,
                            kernel.frobenius_norm(c))
    return weights, match.holds


def weighted_dual(frame: GFrame, weights) -> GFrame:
    """The dual {w_i^-1 Dual_i} of the scaled family {w_i Lambda_i}.

    Weights must be real and bounded away from zero. The scaled family
    keeps the frame property with bounds inside [a^2 A, b^2 B].
    """
    w = _weights_for(frame, weights)
    if not w.is_real:
        raise HypothesisError("w_i real", {"max|Im w_i|": float(np.abs(w.values.imag).max())})
    # the reciprocal of a subnormal weight overflows
    smallest, tiny = float(np.abs(w.values).min()), float(np.finfo(float).tiny)
    if smallest < tiny:
        raise HypothesisError("min|w_i| >= smallest normal float",
                              {"min|w_i|": smallest, "threshold": tiny})
    dual = core.canonical_dual(frame)
    return frame._with_rows(
        frame.per_row(1.0 / w.values)[:, None] * dual.analysis_matrix(),
        f"weighted dual of {frame.label}" if frame.label else None,
    )


class WeightedOperatorChecks(NamedTuple):
    matches_scaled_frame_operator: bool
    match_defect: float
    self_adjoint: bool
    self_adjoint_defect: float
    lower_eigenvalue: float
    invertible: bool


def weighted_multiplier_as_frame_operator(frame: GFrame, weights):
    """M_(w,Lambda) = sum_i w_i Lambda_i* Lambda_i as a frame operator.

    For positive weights this multiplier is exactly the frame operator
    of {sqrt(w_i) Lambda_i}; returns (matrix, checks) where the checks
    record that identity, self-adjointness and invertibility.
    """
    w = _positive_weights(frame, weights)
    m_mat = multipliers.multiplier(w, frame, frame)
    scaled = core.frame_operator(core.scale_blocks(frame, np.sqrt(w.values.real)))
    match = Margin.relative(kernel.frobenius_norm(m_mat - scaled), TAU_EXACT,
                            kernel.frobenius_norm(scaled))
    self_adjoint = kernel.self_adjoint(m_mat)
    _, lower = kernel.hermitian_eigenvalues(m_mat)
    checks = WeightedOperatorChecks(
        matches_scaled_frame_operator=match.holds,
        match_defect=match.value,
        self_adjoint=self_adjoint.holds,
        self_adjoint_defect=self_adjoint.value,
        lower_eigenvalue=lower.value,
        invertible=lower.holds,
    )
    return m_mat, checks


class WeightedEquivalence(NamedTuple):
    """Six statements that hold or fail together for positive weights."""

    frame: bool
    multiplier_invertible: bool
    linear_weight_bounds: bool
    sqrt_scaled_frame: bool
    alt_multiplier_invertible: bool
    scaled_frame: bool

    @property
    def unanimous(self) -> bool:
        return all(self) or not any(self)


def weighted_equivalence_suite(frame: GFrame, weights, weights_alt) -> WeightedEquivalence:
    """Evaluate all six equivalent weighted-frame statements.

    (i) the family is a g-frame; (ii) the weight multiplier is positive
    self-adjoint invertible; (iii) the single-power weighted form has
    positive bounds; (iv) {sqrt(w_i) Lambda_i} is a g-frame; (v) the
    same multiplier statement for any other positive semi-normalized
    sequence; (vi) {w_i Lambda_i} is a g-frame.
    """
    w = _positive_weights(frame, weights)
    w_alt = _positive_weights(frame, weights_alt)

    def _mult_invertible(seq: WeightSequence) -> bool:
        m_mat = multipliers.multiplier(seq, frame, frame)
        # decided before eigvalsh, which raises LinAlgError on an overflowed M
        return kernel.self_adjoint(m_mat).holds and kernel.hermitian_eigenvalues(m_mat)[1].holds

    # (iii) and (iv) are one test on the spectrum of {sqrt(w_i) Lambda_i}
    sqrt_scaled = core.scale_blocks(frame, np.sqrt(w.values.real))
    sqrt_scaled_frame = core.frame_bounds(sqrt_scaled).is_frame
    return WeightedEquivalence(
        frame=core.frame_bounds(frame).is_frame,
        multiplier_invertible=_mult_invertible(w),
        linear_weight_bounds=sqrt_scaled_frame,
        sqrt_scaled_frame=sqrt_scaled_frame,
        alt_multiplier_invertible=_mult_invertible(w_alt),
        scaled_frame=core.frame_bounds(core.scale_blocks(frame, w.values.real)).is_frame,
    )
