"""Splitting g-frames into structured components.

Every g-frame on C^d whose block dimensions sum to d is a scalar
multiple of the sum of three g-orthonormal bases; g-Riesz families are
linear combinations of two. General g-frames split into two normalized
tight families, or into a g-ONB plus a g-Riesz family. All
constructions run through the averaged-unitary splittings of the
kernel module, all read the frame's one cached thin SVD of T, and
reconstruct the input exactly up to roundoff. Past
`core._DIRECT_SVD_ROWS` rows that SVD factors no n x d matrix.

Every returned component is certified on its own terms, with only the
work its predicate needs: a normalized tight component by the core
Parseval verdict on its S, a g-ONB by that and a square T, neither with
a factorization, and a g-Riesz component by a square T and its frame
verdict, which reads the eigenvalues of S alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import core, kernel
from .core import GFrame, _require_frame
from .errors import GFrameError, HypothesisError
from .kernel import _unitary_pair, _unitary_triple
from .tolerances import TAU_RECON, Margin


class ComponentKind(Enum):
    G_ONB = "GOnb"
    NORMALIZED_TIGHT = "NormalizedTight"
    G_RIESZ = "GRiesz"


@dataclass(frozen=True)
class GFrameDecomposition:
    """Scalars and components with sum_j scalars[j]*components[j] = input."""

    scalars: tuple[float, ...]
    components: tuple[GFrame, ...]
    component_kinds: tuple[ComponentKind, ...]
    reconstruction_residual: float


def _component_matches(kind: ComponentKind, frame: GFrame) -> bool:
    if kind is ComponentKind.G_ONB:
        return core.is_g_onb(frame)
    if kind is ComponentKind.NORMALIZED_TIGHT:
        return core.is_parseval(frame)
    return core.is_g_riesz(frame)


def _certified(scalar: float, stacked_components, kinds, frame: GFrame) -> GFrameDecomposition:
    """The decomposition scalar * sum_j C_j of the frame, each C_j checked
    against its kind; every decomposition has one common scalar."""
    target = frame.analysis_matrix()
    components = tuple(frame._with_rows(m) for m in stacked_components)
    gap = stacked_components[0].copy()  # one buffer: scalar * sum_j C_j - T
    for m in stacked_components[1:]:
        gap += m
    gap *= scalar
    gap -= target
    residual = kernel.frobenius_norm(gap)
    if not Margin.relative(residual, TAU_RECON, kernel.frobenius_norm(target)):
        raise GFrameError(
            f"decomposition failed to reconstruct: residual {residual:.3e}"
        )
    for comp, kind in zip(components, kinds):
        if not _component_matches(kind, comp):
            raise GFrameError(
                f"decomposition produced a component that is not a {kind.value}"
            )
    return GFrameDecomposition(
        scalars=(float(scalar),) * len(components),
        components=components,
        component_kinds=tuple(kinds),
        reconstruction_residual=residual,
    )


def _require_square_frame(frame: GFrame) -> None:
    """A g-frame with a square T: a g-Riesz family."""
    _require_frame(frame)
    if not core._is_square(frame):
        raise HypothesisError("sum(d_i) = h_dim",
                              {"sum(d_i)": sum(frame.partition), "h_dim": frame.h_dim})


def _pair_split(frame: GFrame, kind: ComponentKind) -> GFrameDecomposition:
    """a*(C1 + C2) with a = ||T||/2: the pair averaging to T/||T||."""
    u, s, vh = frame._svd
    a = float(s[0]) / 2.0
    return _certified(a, _unitary_pair(u, s / s[0], vh), (kind,) * 2, frame)


def decompose_three_gonb(frame: GFrame) -> GFrameDecomposition:
    """Write a g-frame with sum(d_i) = h_dim as a*(U1 + U2 + U3) with
    three g-ONB components, a = ||T||.

    T/(3a) has norm 1/3, so it is the mean of three unitaries; each
    unitary, cut back into blocks, is a g-ONB.
    """
    _require_square_frame(frame)
    u, s, vh = frame._svd
    a = float(s[0])
    triple = _unitary_triple(u, s / (3.0 * a), vh)
    return _certified(a, triple, (ComponentKind.G_ONB,) * 3, frame)


def decompose_two_gonb_combo(frame: GFrame) -> GFrameDecomposition:
    """Write a g-Riesz family as a*U1 + a*U2 with g-ONB components.

    Only g-Riesz families admit such a combination; anything else is
    rejected. Here a = ||T||/2 and the pair comes from splitting the
    contraction T/||T||.
    """
    _require_square_frame(frame)
    return _pair_split(frame, ComponentKind.G_ONB)


def coisometry_image(theta: GFrame, k) -> GFrame:
    """Push a g-ONB through a coisometry: blocks Theta_i K*.

    K K* = I is the Parseval verdict of the family whose analysis matrix
    is K*, so K is checked by the core Parseval test on K K*; the image is
    a normalized tight (Parseval) g-frame, certified by `core.is_parseval`.
    """
    if not core.is_g_onb(theta):
        parseval = core._parseval_margin(theta._operator)
        raise HypothesisError("sum(d_i) = h_dim and ||S - I||_F <= TAU_CLASS",
                              {"sum(d_i)": sum(theta.partition), "h_dim": theta.h_dim,
                               "||S - I||_F": parseval.value, "threshold": parseval.threshold})
    k_mat = kernel.as_matrix(k, "coisometry")
    if k_mat.shape[1] != theta.h_dim:
        raise HypothesisError("columns(K) = h_dim",
                              {"columns(K)": k_mat.shape[1], "h_dim": theta.h_dim})
    defect = core._parseval_margin(k_mat @ k_mat.conj().T)
    if not defect:
        raise HypothesisError("||K K* - I||_F <= TAU_CLASS",
                              {"||K K* - I||_F": defect.value, "threshold": defect.threshold})
    image = theta._with_rows(
        theta.analysis_matrix() @ k_mat.conj().T,
        f"coisometry image of {theta.label}" if theta.label else None,
    )
    if not core.is_parseval(image):
        raise GFrameError("coisometry image failed Parseval certification")
    return image


def decompose_two_parseval(frame: GFrame) -> GFrameDecomposition:
    """Write any g-frame as a*(P1 + P2) with normalized tight components.

    With T = V P polar and a = ||T||/2, the contraction P/(2a) extends
    to a unitary B, and V B, V B* stack two Parseval components whose
    mean recovers T/(2a). The SVD T = U diag(s) W* gives all three: the
    polar factor V = U W*, ||T|| = s[0], and the eigenbasis W of P.
    """
    _require_frame(frame)
    return _pair_split(frame, ComponentKind.NORMALIZED_TIGHT)


def decompose_gonb_plus_griesz(frame: GFrame) -> GFrameDecomposition:
    """Write a g-frame with sum(d_i) = h_dim as one g-ONB plus one g-Riesz
    family, both with scalar 1.

    With T = W P polar, take -W as the g-ONB part and T + W = W(P + I)
    as the g-Riesz part; P + I has spectrum >= 1, so the second
    component is always invertible.
    """
    _require_square_frame(frame)
    u, _, vh = frame._svd
    w = u @ vh
    return _certified(
        1.0,
        (-w, frame.analysis_matrix() + w),
        (ComponentKind.G_ONB, ComponentKind.G_RIESZ),
        frame,
    )
