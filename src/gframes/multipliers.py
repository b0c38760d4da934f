"""g-Bessel multipliers and certified inversion.

A multiplier combines two families and a weight sequence into the
operator M = sum_i m_i Lambda_i* Theta_i. Each inversion routine here
checks the hypothesis of one invertibility result, evaluates the
corresponding inverse (directly or as a truncated operator series) and
returns a certificate: the checked quantities, a rigorous bracket for
||M^-1||, the number of series terms spent, and the achieved residual
||M M^-1 - I||.

Every series route checks its hypothesis, which yields a base, a ratio
R formed from the M it inverts and a contraction q >= ||R|| with
M^-1 = sum_k R^k base; `_certified_series` then sums the n terms with
||base|| q^n/(1-q) <= tol, so `tol` bounds ||M^-1 - X||_2 through the
geometric tail. The Neumann routes (P3.4, C3.5, P3.8) take R = I - M;
a dual accepted within TAU_DUAL adds its defect delta to the paper's q,
so they certify q + delta and report delta as `duality_defect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import core, kernel
from .core import GFrame, _inverse_frame_operator, _require_frame, _require_same_shape
from .errors import (
    HypothesisFailed,
    MaxIterations,
    MixedSigns,
    NonFinite,
    NonPositiveInput,
    NotDual,
    ShapeMismatch,
    Singular,
    SingularG,
)
from .kernel import _ArrayValue, _square_matrix
from .tolerances import MAX_SERIES_TERMS, TAU_EXACT, TAU_INV, Margin


@dataclass(frozen=True, eq=False)
class WeightSequence(_ArrayValue):
    """A finite complex weight sequence, one entry per block index.

    `norm_inf` is the sup norm; `semi_norm_bounds` holds the extreme
    moduli (a, b) and is present exactly when every entry is nonzero.
    """

    values: np.ndarray
    norm_inf: float = field(init=False)
    semi_norm_bounds: tuple[float, float] | None = field(init=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if v.size == 0:
            raise ShapeMismatch("weight sequence must be non-empty")
        if not np.isfinite(v).all():
            raise NonFinite("weight sequence contains non-finite entries")
        v.flags.writeable = False
        moduli = np.abs(v)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "norm_inf", float(moduli.max()))
        bounds = None
        if moduli.min() > 0.0:
            bounds = (float(moduli.min()), float(moduli.max()))
        object.__setattr__(self, "semi_norm_bounds", bounds)

    def __len__(self) -> int:
        return self.values.size

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @property
    def is_positive(self) -> bool:
        return self.is_real and bool(np.all(self.values.real > 0.0))


def as_weight_sequence(values) -> WeightSequence:
    if isinstance(values, WeightSequence):
        return values
    return WeightSequence(np.asarray(values))


class Proposition(Enum):
    P33_BIJECTION = "P33_Bijection"
    P34_DUAL_PERTURB = "P34_DualPerturb"
    C35_CANONICAL_DUAL = "C35_CanonicalDual"
    P36_BESSEL_PERTURB = "P36_BesselPerturb"
    P37_MU_PERTURB = "P37_MuPerturb"
    P38_DUAL_MU_PERTURB = "P38_DualMuPerturb"
    DIRECT = "Direct"


@dataclass(frozen=True)
class MultiplierCertificate:
    """What an inversion routine verified and achieved.

    `hypothesis_values` holds the measured quantities behind the checked
    inequality; `inverse_norm_lower/upper` bracket the true ||M^-1||;
    `series_terms_for_tol` counts partial-sum terms (0 for direct
    inversion); `residual` is the achieved ||M M^-1 - I||.
    """

    proposition: Proposition
    hypothesis_values: dict[str, float]
    inverse_norm_lower: float
    inverse_norm_upper: float
    series_terms_for_tol: int
    residual: float

    def __post_init__(self):
        if self.inverse_norm_lower > self.inverse_norm_upper:
            raise ShapeMismatch("certificate bracket is inverted")


def _weights_for(frame: GFrame, weights) -> WeightSequence:
    w = as_weight_sequence(weights)
    if len(w) != frame.n_blocks:
        raise ShapeMismatch(f"{len(w)} weights for {frame.n_blocks} blocks")
    return w


def multiplier(weights, frame: GFrame, companion: GFrame) -> np.ndarray:
    """M = sum_i m_i Lambda_i* Theta_i on matching families."""
    _require_same_shape(frame, companion)
    w = _weights_for(frame, weights)
    weighted = frame.analysis_matrix().conj()  # the one n x d temporary
    weighted *= frame.per_row(w.values)[:, None]
    return weighted.T @ companion.analysis_matrix()


def multiplier_norm_bound(weights, frame: GFrame, companion: GFrame) -> float:
    """||M|| <= sqrt(B_Lambda B_Theta) ||m||_inf with optimal upper bounds."""
    _require_same_shape(frame, companion)
    w = _weights_for(frame, weights)
    b_frame = core.frame_bounds(frame).upper
    b_comp = core.frame_bounds(companion).upper
    return math.sqrt(b_frame * b_comp) * w.norm_inf


def _definite_sign(w: WeightSequence) -> float:
    if not w.is_real:
        raise MixedSigns("weights must be real for this inversion")
    re = w.values.real
    if np.all(re > 0.0):
        return 1.0
    if np.all(re < 0.0):
        return -1.0
    raise MixedSigns("weights must be strictly positive or strictly negative")


def _require_tol(tol: float) -> float:
    if not (tol > 0.0) or not math.isfinite(tol):
        raise NonPositiveInput(f"series tolerance must be a positive real, got {tol!r}")
    return float(tol)


def _geometric_terms(contraction: float, tol: float) -> int:
    # smallest n >= 1 with q^n/(1-q) <= tol; none exists for q >= 1
    if contraction <= 0.0:
        return 1
    n = math.inf
    if contraction < 1.0:
        n = max(math.ceil(math.log(tol * (1.0 - contraction)) / math.log(contraction)), 1)
    if n > MAX_SERIES_TERMS:
        raise MaxIterations(
            f"geometric tail needs {n} terms, cap is {MAX_SERIES_TERMS}"
        )
    return n


def _series_sum(base: np.ndarray, ratio: np.ndarray, n_terms: int) -> np.ndarray:
    """sum_{k<n} ratio^k @ base in O(log n) products.

    Binary splitting over the bits of n, carrying ratio^m alongside the
    partial sum S_m: S_2m = S_m + ratio^m S_m and S_m+1 = base + ratio S_m.
    """
    total, power = base, ratio
    bits = bin(n_terms)[3:]
    for k, bit in enumerate(bits, 1):
        total = total + power @ total
        if bit == "1":
            total = base + ratio @ total
        if k < len(bits):  # the last bit's power would go unread
            power = power @ power
            if bit == "1":
                power = power @ ratio
    return total


def _residual(m_mat: np.ndarray, m_inv: np.ndarray) -> float:
    return kernel.frobenius_norm(m_mat @ m_inv - np.eye(m_mat.shape[0]))


def _certificate(m_mat, m_inv, proposition, hvals, bracket, n_terms=0):
    """(m_inv, its certificate) for the inverse `m_inv` of M: the
    proposition's (lower, upper) `bracket` of ||M^-1||, `n_terms` series
    terms and the achieved residual."""
    return m_inv, MultiplierCertificate(proposition, hvals, *bracket, n_terms,
                                        _residual(m_mat, m_inv))


def _certified_series(m_mat, base, ratio, contraction, tail_tol, proposition, hvals, bracket):
    """Sum M^-1 = sum_k ratio^k base to the geometric tail and certify it.

    `contraction` bounds ||ratio|| and `tail_tol` is tol/||base||.
    """
    n_terms = _geometric_terms(contraction, tail_tol)
    return _certificate(m_mat, _series_sum(base, ratio, n_terms), proposition,
                        {**hvals, "contraction": contraction}, bracket, n_terms)


def _neumann_series(m_mat, c, tol, proposition, hvals):
    """Sum M^-1 = sum_k (I - M)^k for ||I - M|| <= c < 1 and certify it;
    ||M^-1|| then lies in [1/(1 + c), 1/(1 - c)]."""
    eye = np.eye(m_mat.shape[0], dtype=np.complex128)
    return _certified_series(m_mat, eye, eye - m_mat, c, tol, proposition, hvals,
                             (1.0 / (1.0 + c), 1.0 / (1.0 - c)))


def _oriented(w: WeightSequence, frame: GFrame, companion: GFrame, swapped: bool):
    """M, or the (companion, frame) multiplier sum_i m_i Theta_i* Lambda_i when `swapped`."""
    return multiplier(w, companion, frame) if swapped else multiplier(w, frame, companion)


def _weighted_inverse(frame: GFrame, w: WeightSequence):
    """(S_w^-1, bounds of S_w) for S_w = sum_i |m_i| Lambda_i* Lambda_i, the frame
    operator of {sqrt|m_i| Lambda_i}; S_w^-1 reads that frame's thin SVD."""
    scaled = core.scale_blocks(frame, np.sqrt(np.abs(w.values)))
    bounds = core.frame_bounds(scaled)
    if not bounds.is_frame:
        raise Singular(f"matrix is numerically singular: smallest eigenvalue {bounds.lower:.3e}")
    return _inverse_frame_operator(scaled), bounds


def invert_via_bijection(weights, frame: GFrame, g_matrix):
    """Invert M = sum_i m_i Lambda_i* Lambda_i G exactly.

    For real sign-definite nonvanishing weights and invertible G the
    multiplier factors through the weighted frame operator, so
    M^-1 = +/- G^-1 S_w^-1 with S_w = sum_i |m_i| Lambda_i* Lambda_i.
    Returns (inverse, certificate).
    """
    w = _weights_for(frame, weights)
    sign = _definite_sign(w)
    g = kernel.as_matrix(g_matrix, "bijection operator")
    if g.shape != (frame.h_dim, frame.h_dim):
        raise ShapeMismatch(
            f"bijection operator has shape {g.shape}, expected square of size {frame.h_dim}"
        )
    sv = kernel.require_invertible(np.linalg.svd(g, compute_uv=False), SingularG,
                                   "bijection operator is singular")
    bounds = _require_frame(frame, "the weighted family needs a g-frame to invert against")
    companion = frame._with_rows(frame.analysis_matrix() @ g)
    m_mat = multiplier(w, frame, companion)
    s_w_inv, s_w_bounds = _weighted_inverse(frame, w)
    a_w, b_w = w.semi_norm_bounds
    hvals = {"a": a_w, "b": b_w, "A_Lambda": bounds.lower, "B_Lambda": bounds.upper,
             "sigma_min_G": float(sv[-1]), "sigma_max_G": float(sv[0])}
    return _certificate(m_mat, sign * (np.linalg.inv(g) @ s_w_inv), Proposition.P33_BIJECTION,
                        hvals, (1.0 / (float(sv[0]) * s_w_bounds.upper),
                                (1.0 / float(sv[-1])) / s_w_bounds.lower))


def invert_dual_neumann(weights, frame: GFrame, dual: GFrame,
                        tol: float = TAU_INV, swapped: bool = False):
    """Invert a multiplier of a dual pair with weights near one.

    With lambda = max|1 - m_i| and q = lambda*sqrt(B_Lambda*B_dual) < 1,
    ||I - M|| <= q + delta for the duality defect delta, so M^-1 is the
    Neumann sum of powers of I - M, truncated by the geometric tail
    bound. `swapped` evaluates the (dual, frame) operator order instead.
    """
    tol = _require_tol(tol)
    w = _weights_for(frame, weights)
    delta, _, is_dual = core._duality_margin(frame, dual)
    if not is_dual:
        raise NotDual("the companion family is not a dual of the frame")
    b_frame = core.frame_bounds(frame).upper
    b_dual = core.frame_bounds(dual).upper
    lam = float(np.max(np.abs(1.0 - w.values)))
    q = lam * math.sqrt(b_frame * b_dual)
    hvals = {"lambda": lam, "B_Lambda": b_frame, "B_dual": b_dual, "duality_defect": delta}
    if q >= 1.0:
        raise HypothesisFailed(
            "lambda*sqrt(B_Lambda*B_dual) < 1", {**hvals, "contraction": q}
        )
    m_mat = _oriented(w, frame, dual, swapped)
    return _neumann_series(m_mat, q + delta, tol, Proposition.P34_DUAL_PERTURB, hvals)


def invert_canonical_dual(weights, frame: GFrame,
                          tol: float = TAU_INV, swapped: bool = False):
    """Invert a multiplier of the frame with its canonical dual.

    The hypothesis tightens to lambda < sqrt(A_Lambda/B_Lambda) because
    the canonical dual's optimal upper bound is 1/A_Lambda; with
    q = lambda*sqrt(B_Lambda/A_Lambda) plus the computed dual's defect
    delta, the bracket becomes 1/(1 +/- (q + delta)).
    """
    tol = _require_tol(tol)
    w = _weights_for(frame, weights)
    bounds = _require_frame(frame, "cannot form a canonical dual of a non-frame")
    lam = float(np.max(np.abs(1.0 - w.values)))
    threshold = math.sqrt(bounds.lower / bounds.upper)
    hvals = {"lambda": lam, "A_Lambda": bounds.lower, "B_Lambda": bounds.upper}
    if lam >= threshold:
        raise HypothesisFailed(
            "lambda < sqrt(A_Lambda/B_Lambda)", {**hvals, "threshold": threshold}
        )
    dual = core.canonical_dual(frame)
    hvals["duality_defect"] = delta = core.duality_defect(frame, dual)
    m_mat = _oriented(w, frame, dual, swapped)
    c = lam * math.sqrt(bounds.upper / bounds.lower) + delta
    return _neumann_series(m_mat, c, tol, Proposition.C35_CANONICAL_DUAL, hvals)


def invert_bessel_perturb(weights, frame: GFrame, companion: GFrame,
                          tol: float = TAU_INV, swapped: bool = False):
    """Invert a multiplier whose companion is a small Bessel perturbation.

    Requires real sign-definite semi-normalized weights, a Bessel bound
    B_diff of the blockwise difference below A_Lambda^2/B_Lambda, and
    b/a < A_Lambda/sqrt(B_diff*B_Lambda). The inverse is the series
    sum_k [I -/+ S_w^-1 M]^k (+/-S_w^-1) preconditioned by the weighted
    frame operator S_w, with contraction q = (b/a) sqrt(B_Lambda*B_diff)/A_Lambda
    and ||S_w^-1|| <= 1/(a A_Lambda) setting the geometric tail.
    """
    tol = _require_tol(tol)
    w = _weights_for(frame, weights)
    _require_same_shape(frame, companion)
    sign = _definite_sign(w)
    a_w, b_w = w.semi_norm_bounds
    bounds = _require_frame(frame, "the base family must be a g-frame")
    a_l, b_l = bounds.lower, bounds.upper
    diff = frame._with_rows(companion.analysis_matrix() - frame.analysis_matrix())
    b_diff = core.frame_bounds(diff).upper
    spread = b_w * math.sqrt(b_l * b_diff)
    contraction = spread / (a_w * a_l)
    hvals = {"a": a_w, "b": b_w, "A_Lambda": a_l, "B_Lambda": b_l, "B_diff": b_diff,
             "contraction": contraction}
    if b_diff >= a_l**2 / b_l:
        raise HypothesisFailed("B_diff < A_Lambda^2/B_Lambda", hvals)
    if contraction >= 1.0:
        raise HypothesisFailed("b/a < A_Lambda/sqrt(B_diff*B_Lambda)", hvals)
    s_w_inv, _ = _weighted_inverse(frame, w)
    m_mat = _oriented(w, frame, companion, swapped)
    ratio = np.eye(frame.h_dim) - sign * (s_w_inv @ m_mat)
    return _certified_series(
        m_mat, sign * s_w_inv, ratio, contraction, tol * a_w * a_l,
        Proposition.P36_BESSEL_PERTURB, hvals,
        (1.0 / (b_w * b_l + spread), 1.0 / (a_w * a_l - spread)),
    )


def _validated_mu(w: WeightSequence, companion: GFrame, reference: GFrame,
                  swapped: bool, mu: float | None, hvals: dict) -> float:
    # the swapped multiplier sum_i m_i Theta_i* Lambda_i is M(conj m)*,
    # so its perturbation is measured with conjugated weights
    m = w.values.conj() if swapped else w.values
    pert = companion._with_rows(
        companion.per_row(m)[:, None] * companion.analysis_matrix()
        - reference.analysis_matrix()
    )
    mu_actual = core.frame_bounds(pert).upper
    hvals["mu_computed"] = mu_actual
    if mu is None:
        return mu_actual
    mu = float(mu)
    if not Margin.defect(mu_actual * (1.0 - TAU_EXACT) - TAU_EXACT, mu):
        raise HypothesisFailed(
            "supplied mu must dominate the perturbation bound",
            {**hvals, "mu": mu},
        )
    return mu


def invert_mu_perturb(weights, frame: GFrame, companion: GFrame,
                      tol: float = TAU_INV, swapped: bool = False,
                      mu: float | None = None):
    """Invert a multiplier close to the frame operator.

    mu bounds sum_i ||(m_i Theta_i - Lambda_i) f||^2 (conj(m_i) when
    `swapped`); the hypothesis is mu < A_Lambda^2/B_Lambda. The inverse
    is the series sum_k [I - S^-1 M]^k S^-1, with contraction
    q = sqrt(mu*B_Lambda)/A_Lambda and ||S^-1|| = 1/A_Lambda setting the
    geometric tail. A user-supplied mu is accepted if it dominates the
    computed optimal one.
    """
    tol = _require_tol(tol)
    w = _weights_for(frame, weights)
    _require_same_shape(frame, companion)
    bounds = _require_frame(frame, "the base family must be a g-frame")
    a_l, b_l = bounds.lower, bounds.upper
    hvals = {"A_Lambda": a_l, "B_Lambda": b_l}
    mu_used = _validated_mu(w, companion, frame, swapped, mu, hvals)
    hvals["mu"] = mu_used
    if mu_used >= a_l**2 / b_l:
        raise HypothesisFailed("mu < A_Lambda^2/B_Lambda", hvals)
    root = math.sqrt(mu_used * b_l)
    s_inv = _inverse_frame_operator(frame)
    m_mat = _oriented(w, frame, companion, swapped)
    # the weighted companion inherits a positive lower bound; record it
    hvals["mTheta_lower"] = core.frame_bounds(
        core.scale_blocks(companion, np.abs(w.values))
    ).lower
    return _certified_series(
        m_mat, s_inv, np.eye(frame.h_dim) - s_inv @ m_mat, root / a_l, tol * a_l,
        Proposition.P37_MU_PERTURB, hvals, (1.0 / (b_l + root), 1.0 / (a_l - root)),
    )


def invert_dual_mu_perturb(weights, frame: GFrame, dual: GFrame, companion: GFrame,
                           tol: float = TAU_INV,
                           swapped: bool = False, mu: float | None = None):
    """Invert a multiplier close to the identity via a dual pair.

    mu bounds sum_i ||(m_i Theta_i - D_i) f||^2 (conj(m_i) when
    `swapped`) against a verified dual D of the frame; the hypothesis is
    mu < 1/B_Lambda, which with the duality defect delta makes
    ||I - M|| <= sqrt(mu*B_Lambda) + delta < 1, so M^-1 is its Neumann
    sum with geometric tail truncation.
    """
    tol = _require_tol(tol)
    w = _weights_for(frame, weights)
    _require_same_shape(frame, companion)
    delta, _, is_dual = core._duality_margin(frame, dual)
    if not is_dual:
        raise NotDual("the dual family is not a dual of the frame")
    b_l = core.frame_bounds(frame).upper
    hvals = {"B_Lambda": b_l, "duality_defect": delta}
    mu_used = _validated_mu(w, companion, dual, swapped, mu, hvals)
    hvals["mu"] = mu_used
    if mu_used >= 1.0 / b_l:
        raise HypothesisFailed("mu < 1/B_Lambda", hvals)
    m_mat = _oriented(w, frame, companion, swapped)
    c = math.sqrt(mu_used * b_l) + delta
    return _neumann_series(m_mat, c, tol, Proposition.P38_DUAL_MU_PERTURB, hvals)


def lower_bound_from_invertible(m_matrix, b_other: float) -> float:
    """Lower frame bound 1/(B_other ||M^-1||^2) for a weighted family.

    For an invertible M = sum_i m_i Lambda_i* Theta_i, passing the
    companion's Bessel bound B_Theta gives a lower bound of
    {m_i Lambda_i}, and passing the frame's B_Lambda one of {m_i Theta_i}.
    """
    if not (b_other > 0.0) or not math.isfinite(b_other):
        raise NonPositiveInput(f"Bessel bound must be a positive real, got {b_other!r}")
    sv = kernel.require_invertible(
        np.linalg.svd(_square_matrix(m_matrix, "multiplier"), compute_uv=False),
        Singular, "multiplier is not invertible")
    return float(sv[-1] ** 2) / float(b_other)
