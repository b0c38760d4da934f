"""Dense complex-matrix primitives.

The Gram matrix X* X from one symmetric real product, input checks,
norms, and the two averaged-unitary splittings: any contraction is the
mean of two unitaries, and any operator of norm at most 1/3 is the mean
of three. Everything works on plain complex128 ndarrays, and no helper
copies an n x d input to conjugate or rescale it. Three of the five homes of a scale-bearing
decision are here: `self_adjoint`, the one reader of TAU_HERM, and the
rank floor in `hermitian_eigenvalues` and `require_invertible`. The frame
verdict `core._classify_bounds` and `Margin.relative` are the others.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import NonFinite, NormTooLarge, ShapeMismatch
from .tolerances import TAU_HERM, TAU_NORM, Margin


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a frozen 2-D complex128 array."""
    a = np.array(value, dtype=np.complex128, order="C", copy=True)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or infinite entries")
    a.flags.writeable = False
    return a


def _square_matrix(value, name: str) -> np.ndarray:
    """`as_matrix`, and ShapeMismatch unless the result is square."""
    a = as_matrix(value, name)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(a))


def operator_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


# combines rows 2j and 2j + 1 of the real Gram into row j of X* X
_CONJUGATE_PAIR = np.array([1.0, -1.0j])


def gram(x) -> np.ndarray:
    """X* X of an n x d matrix, exactly Hermitian, with no conjugate copy.

    With R the n x 2d real view of X, R^T R is one symmetric real
    product (SYRK). Read as complex, its row 2j + a holds part a (re,
    im) of column j against every column k, so row j of X* X is row 2j
    minus i times row 2j + 1, and the symmetry of R^T R makes the result
    exactly Hermitian. Only a real or non-C-ordered x is copied.
    """
    r = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    d = r.shape[1] // 2
    pairs = (r.T @ r).view(np.complex128).reshape(d, 2, d)
    return _CONJUGATE_PAIR @ pairs


def self_adjoint(a: np.ndarray) -> Margin:
    """The one self-adjoint verdict: ||A - A*||_F against TAU_HERM."""
    return Margin.defect(frobenius_norm(a - a.conj().T), TAU_HERM)


def hermitian_eigenvalues(a: np.ndarray) -> tuple[np.ndarray, Margin]:
    """(ascending eigenvalues of (A + A*)/2, floor Margin on the smallest)."""
    eigs = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return eigs, Margin.above_floor(float(eigs[0]))


def require_invertible(sv: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """The singular values `sv`; error(f"{what}: sigma_min ...") if sigma_min^2 is at the floor."""
    if not Margin.above_floor(sv.min() ** 2):
        raise error(f"{what}: sigma_min {sv.min():.3e}")
    return sv


class _ArrayValue:
    """Value semantics for a frozen dataclass (eq=False) of array fields:
    == by np.array_equal on the init fields, a hash of their shapes, and
    copies and pickles that rebuild through the constructor."""

    def _init_values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = zip(self._init_values(), other._init_values())
        return all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        return hash(tuple(np.shape(v) for v in self._init_values()))

    def __reduce__(self):
        return (type(self), self._init_values())


def _unitary_pair(u, s, vh) -> tuple[np.ndarray, np.ndarray]:
    """The pair (W B, W B*) averaging to the contraction A = u diag(s) vh.

    With A = W P polar, W = u vh and B = P + i(I - P^2)^(1/2). Working in
    the singular basis keeps P and the root exactly commuting; clipping
    the singular values at 1 absorbs inputs that exceed norm 1 by
    roundoff. For tall A the columns of W B and W B* are orthonormal.
    Since vh vh* = I, W B = u diag(z) vh and W B* = u diag(conj(z)) vh
    with z = s + i(1 - s^2)^(1/2): two products in all, each scaling the
    rows of the d x d vh rather than the columns of a tall u.
    """
    s = np.clip(s, 0.0, 1.0)
    z = (s + 1j * np.sqrt(1.0 - s**2))[:, None]
    return u @ (z * vh), u @ (z.conj() * vh)


def unitary_pair_from_contraction(matrix):
    """Two unitaries averaging to a given contraction.

    Returns (U1, U2) with (U1 + U2)/2 equal to the input, which must be
    square with operator norm at most 1 (plus TAU_NORM slack).
    """
    u, s, vh = np.linalg.svd(_square_matrix(matrix, "contraction"))
    if not Margin.defect(s[0], 1.0 + TAU_NORM):
        raise NormTooLarge(f"operator norm {s[0]:.6g} exceeds 1")
    return _unitary_pair(u, s, vh)


def _unitary_triple(u, s, vh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unitaries averaging to A = u diag(s) vh with ||A|| <= 1/3.

    U1 = u vh is the unitary polar factor of 3A; the remaining
    correction (3A - U1)/2 = u diag((3s - 1)/2) vh is a contraction,
    whose signs move into the rows of vh, and splits into the other two.
    The sign is +1 where 3s = 1, so I/3 splits as (I + iI - iI)/3.
    """
    correction = (3.0 * s - 1.0) / 2.0
    sign = np.where(correction < 0.0, -1.0, 1.0)
    return (u @ vh, *_unitary_pair(u, np.abs(correction), sign[:, None] * vh))


def unitary_triple_from_small_norm(matrix):
    """Three unitaries averaging to an operator of norm at most 1/3.

    Returns (U1, U2, U3) with (U1 + U2 + U3)/3 equal to the input, which
    must be square with operator norm at most 1/3 (plus TAU_NORM slack);
    one SVD gives all three.
    """
    u, s, vh = np.linalg.svd(_square_matrix(matrix, "small-norm operator"))
    if not Margin.defect(s[0], 1.0 / 3.0 + TAU_NORM):
        raise NormTooLarge(f"operator norm {s[0]:.6g} exceeds 1/3")
    return _unitary_triple(u, s, vh)
