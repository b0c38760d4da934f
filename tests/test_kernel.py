"""Dense-kernel tests: the Gram product, polar parts, psd roots, spectral
ranges, averaged unitaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import check_value_object, complex_gaussian, random_hermitian, random_unit
from gframes.errors import (
    NegativeEigenvalue,
    NonFinite,
    NormTooLarge,
    NotHermitian,
    ShapeMismatch,
)
from gframes.kernel import (
    PolarParts,
    frobenius_norm,
    gram,
    operator_norm,
    polar_decompose,
    psd_sqrt,
    spectral_range,
    unitary_pair_from_contraction,
    unitary_triple_from_small_norm,
)
from gframes.sampling import random_contraction, random_unitary


def unitary_defect(u):
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[1]))


# -- Gram product --


def _layouts(t):
    """t as C-ordered, F-ordered and column-sliced arrays."""
    return {"C": t, "F": np.asfortranarray(t), "sliced": np.repeat(t, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("rows, cols", [(3000, 32), (12, 8), (32, 32), (1, 5), (3, 7)])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_gram_is_exactly_hermitian_on_every_layout(rows, cols, layout, kind):
    rng = np.random.default_rng(rows * cols)
    t = complex_gaussian(rng, rows, cols)
    if kind == "real":
        t = t.real.copy()
    x = _layouts(t)[layout]
    assert np.array_equal(x, t)
    s = gram(x)
    assert s.shape == (cols, cols) and s.dtype == np.complex128
    assert np.array_equal(s, s.conj().T)
    assert np.abs(s - t.conj().T @ t).max() <= 1e-13 * frobenius_norm(t) ** 2
    assert s.tobytes() == gram(t).tobytes()


# -- polar decomposition --


def test_polar_identity():
    parts = polar_decompose(np.eye(3))
    assert np.allclose(parts.isometry, np.eye(3))
    assert np.allclose(parts.positive, np.eye(3))


def test_polar_parts_value_semantics():
    parts = polar_decompose(np.eye(3))
    changed = np.eye(3)
    changed[1, 2] = 1e-9
    check_value_object(parts, polar_decompose(np.eye(3)), PolarParts(changed, parts.positive))


def test_polar_rotation_is_its_own_isometry():
    # m is unitary by hand: m.conj().T @ m = I, so polar gives (m, I)
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(m.conj().T @ m, np.eye(2))
    parts = polar_decompose(m)
    assert np.allclose(parts.isometry, m)
    assert np.allclose(parts.positive, np.eye(2))


def test_polar_reconstruction_random():
    rng = np.random.default_rng(101)
    for _ in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, rows + 1))
        a = complex_gaussian(rng, rows, cols)
        parts = polar_decompose(a)
        assert frobenius_norm(parts.isometry @ parts.positive - a) <= 1e-9 * (
            1 + frobenius_norm(a)
        )
        assert unitary_defect(parts.isometry) <= 1e-10
        # the positive factor really is psd Hermitian
        assert frobenius_norm(parts.positive - parts.positive.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(parts.positive)[0] >= -1e-10


def test_polar_rank_deficient_still_isometry():
    rng = np.random.default_rng(5)
    a = complex_gaussian(rng, 5, 3)
    a[:, 2] = a[:, 0]  # rank 2
    parts = polar_decompose(a)
    assert unitary_defect(parts.isometry) <= 1e-9
    assert frobenius_norm(parts.isometry @ parts.positive - a) <= 1e-9 * (
        1 + frobenius_norm(a)
    )


def test_polar_rejects_wide():
    with pytest.raises(ShapeMismatch):
        polar_decompose(np.ones((2, 4)))


# -- psd square root --


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))


def test_psd_sqrt_diag():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_residual_random():
    rng = np.random.default_rng(77)
    for _ in range(30):
        x = complex_gaussian(rng, 4, 4)
        g = x.conj().T @ x
        r = psd_sqrt(g)
        assert frobenius_norm(r @ r - g) <= 1e-9 * (1 + frobenius_norm(g))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NegativeEigenvalue):
        psd_sqrt(-np.eye(2))


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


# -- spectral range --


def test_spectral_range_rayleigh_oracle():
    # oracle: Rayleigh quotients at 10^4 random unit vectors plus the
    # eigenvectors of an independent solver (np.linalg.eig on the
    # unsymmetrized matrix); the sampled extrema attain the true ones
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = random_hermitian(rng, 5)
        samples = complex_gaussian(rng, 10_000, 5)
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        _, vecs = np.linalg.eig(h)
        witnesses = vecs.T / np.linalg.norm(vecs.T, axis=1, keepdims=True)
        pool = np.vstack([samples, witnesses])
        quotients = np.einsum("ij,ij->i", pool.conj(), pool @ h.T).real
        lo, hi = spectral_range(h)
        scale = max(abs(lo), abs(hi), 1.0)
        assert abs(lo - quotients.min()) <= 1e-6 * scale
        assert abs(hi - quotients.max()) <= 1e-6 * scale


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
def test_spectral_range_diagonal(diag):
    lo, hi = spectral_range(np.diag(diag))
    assert lo == pytest.approx(min(diag), abs=1e-12)
    assert hi == pytest.approx(max(diag), abs=1e-12)


def test_spectral_range_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        u = random_unitary(rng, 6)
        lo1, hi1 = spectral_range(h)
        lo2, hi2 = spectral_range(u.conj().T @ h @ u)
        assert abs(lo1 - lo2) <= 1e-9 * (1 + abs(lo1))
        assert abs(hi1 - hi2) <= 1e-9 * (1 + abs(hi1))


def test_spectral_range_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_range(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- unitary averaging --


def test_pair_of_identity():
    u1, u2 = unitary_pair_from_contraction(np.eye(3))
    assert np.allclose(u1, np.eye(3))
    assert np.allclose(u2, np.eye(3))


def test_pair_of_zero():
    # 0 = (iI + (-iI))/2 is the canonical splitting of the zero operator
    u1, u2 = unitary_pair_from_contraction(np.zeros((2, 2)))
    assert np.allclose(u1, 1j * np.eye(2))
    assert np.allclose(u2, -1j * np.eye(2))


def test_pair_random_contractions():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_contraction(rng, n)
        u1, u2 = unitary_pair_from_contraction(a)
        assert unitary_defect(u1) <= 1e-9
        assert unitary_defect(u2) <= 1e-9
        assert frobenius_norm((u1 + u2) / 2 - a) <= 1e-9 * (1 + frobenius_norm(a))


def test_pair_accepts_norm_exactly_one():
    rng = np.random.default_rng(42)
    u = random_unitary(rng, 4)
    u1, u2 = unitary_pair_from_contraction(u)
    assert frobenius_norm((u1 + u2) / 2 - u) <= 1e-9


def test_pair_rejects_expansion():
    with pytest.raises(NormTooLarge):
        unitary_pair_from_contraction(1.5 * np.eye(2))


def test_triple_of_identity_third():
    # I/3 = (I + iI + (-iI))/3
    u1, u2, u3 = unitary_triple_from_small_norm(np.eye(2) / 3)
    assert np.allclose(u1, np.eye(2))
    assert np.allclose(u2, 1j * np.eye(2))
    assert np.allclose(u3, -1j * np.eye(2))


def test_triple_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_contraction(rng, n, max_norm=1.0 / 3.0)
        u1, u2, u3 = unitary_triple_from_small_norm(a)
        for u in (u1, u2, u3):
            assert unitary_defect(u) <= 1e-9
        assert frobenius_norm((u1 + u2 + u3) / 3 - a) <= 1e-9 * (1 + frobenius_norm(a))


def test_triple_rejects_large_norm():
    with pytest.raises(NormTooLarge):
        unitary_triple_from_small_norm(0.5 * np.eye(2))


def test_triple_at_singular_values_one_third_and_zero():
    # 3s - 1 = 0 and s = 0 are the edges of the single-SVD construction
    rng = np.random.default_rng(47)
    u, v = random_unitary(rng, 4), random_unitary(rng, 4)
    for diag in ([1 / 3] * 4, [1 / 3, 1 / 3, 0.0, 0.0], [1 / 3, 0.2, 0.1, 0.0], [0.0] * 4):
        for a in (np.diag(diag), u @ np.diag(diag) @ v):
            u1, u2, u3 = unitary_triple_from_small_norm(a)
            for w in (u1, u2, u3):
                assert unitary_defect(w) <= 1e-10
            assert frobenius_norm((u1 + u2 + u3) / 3 - a) <= 1e-12


def test_splittings_reject_norm_just_above_their_threshold():
    rng = np.random.default_rng(53)
    u = random_unitary(rng, 3)
    with pytest.raises(NormTooLarge, match="exceeds 1$"):
        unitary_pair_from_contraction((1.0 + 2e-8) * u)
    with pytest.raises(NormTooLarge, match="exceeds 1/3$"):
        unitary_triple_from_small_norm((1.0 / 3.0 + 2e-8) * u)


# -- input hygiene --


def test_rejects_non_finite():
    with pytest.raises(NonFinite):
        polar_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        spectral_range(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_norms_match_numpy():
    rng = np.random.default_rng(4)
    a = complex_gaussian(rng, 3, 5)
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a))
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2))


def test_rayleigh_quotients_inside_range():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    lo, hi = spectral_range(h)
    for _ in range(200):
        f = random_unit(rng, 6)
        q = float(np.vdot(f, h @ f).real)
        assert lo - 1e-9 <= q <= hi + 1e-9
