"""Central numerical tolerances and the one tolerance decision.

Dense double-precision eigen/SVD routines at the sizes this package
targets (dimensions up to a few dozen) are accurate to about 1e-13, so
1e-8 certification thresholds leave a wide margin while still rejecting
anything that is wrong rather than merely rounded.

Every tolerance check in the library is one `Margin`; no other module
compares a value with a TAU_* constant. `Margin.defect(value, tau)`
holds when value <= tau, `Margin.relative(value, tau, size)` when
value <= tau * (1 + size), and `Margin.above_floor` when an eigenvalue
or squared singular value exceeds the rank floor TAU_RANK. NaN never
holds. Each scale-bearing decision has its homes, five in all: the rank
floor in `core._classify_bounds`, `kernel.hermitian_eigenvalues` and
`kernel.require_invertible`; TAU_HERM in `kernel.self_adjoint`; the
`1 + size` scale in `Margin.relative`. Only it and `_classify_bounds`
(tightness, relative to the upper bound) pass `Margin.defect` a scale.
Two unscaled verdicts have one home each: Parseval, ||S - I||_F against
TAU_CLASS, in `core._parseval_margin`, and duality, the duality defect
against TAU_DUAL, in `core._duality_margin`.
"""

from typing import NamedTuple

TAU_HERM = 1e-8     # Frobenius defect ||M - M*|| accepted as self-adjoint
TAU_NORM = 1e-8     # slack on operator-norm preconditions (||A|| <= 1, <= 1/3)
TAU_RANK = 1e-10    # eigenvalue threshold separating rank loss from roundoff
TAU_CLASS = 1e-8    # ||S - I||_F for Parseval; relative gap |B - A| <= TAU_CLASS*B for tightness
TAU_DUAL = 1e-8     # Frobenius defect of sum(D_i* L_i) - I in duality checks
TAU_INV = 1e-8      # default series tolerance for certified inverses
TAU_COMM = 1e-8     # relative commutation defect ||S C* - C S||
TAU_EIG = 1e-8      # relative proportionality residual in weight extraction
TAU_RECON = 1e-9    # relative reconstruction residual for decompositions
TAU_EXACT = 1e-12   # relative slack on identities exact up to roundoff (M_w = S_w, supplied mu)
TAU_INDUCED = 1e-10  # relative defect of the induced controlled identity
TAU_BOUND = 1e-9    # relative slack of a computed norm under its bound

MAX_SERIES_TERMS = 100_000  # hard cap on truncated operator series


class Margin(NamedTuple):
    """One tolerance decision: `value` against `threshold`, truthy when it `holds`."""

    value: float
    threshold: float
    holds: bool

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def defect(cls, value, tau: float, scale=1.0) -> "Margin":
        threshold = tau * scale
        return cls(value, threshold, bool(value <= threshold))

    @classmethod
    def relative(cls, value, tau: float, size) -> "Margin":
        return cls.defect(value, tau, 1.0 + size)

    @classmethod
    def above_floor(cls, value) -> "Margin":
        return cls(value, TAU_RANK, bool(value > TAU_RANK))
