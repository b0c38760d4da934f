"""Dense-kernel tests: the Gram product, averaged unitaries, input
hygiene and norms."""

import numpy as np
import pytest

from conftest import complex_gaussian, violates
from gframes.errors import NonFinite
from gframes.kernel import (
    frobenius_norm,
    gram,
    operator_norm,
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


def test_pair_clips_a_norm_inside_the_slack_at_one():
    # a norm of 1 + 1e-9 is inside TAU_NORM's slack; its singular values are
    # clipped at 1, so the unitaries stay finite and average to the input
    rng = np.random.default_rng(59)
    a = (1.0 + 1e-9) * random_unitary(rng, 4)
    u1, u2 = unitary_pair_from_contraction(a)
    assert np.isfinite(u1).all() and np.isfinite(u2).all()
    assert unitary_defect(u1) <= 1e-10 and unitary_defect(u2) <= 1e-10
    assert frobenius_norm((u1 + u2) / 2 - a) <= 1e-8


def test_pair_rejects_expansion():
    with violates("||A|| <= 1"):
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
        a = random_contraction(rng, n) / 3
        u1, u2, u3 = unitary_triple_from_small_norm(a)
        for u in (u1, u2, u3):
            assert unitary_defect(u) <= 1e-9
        assert frobenius_norm((u1 + u2 + u3) / 3 - a) <= 1e-9 * (1 + frobenius_norm(a))


def test_triple_rejects_large_norm():
    with violates("||A|| <= 1/3"):
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
    with violates("||A|| <= 1"):
        unitary_pair_from_contraction((1.0 + 2e-8) * u)
    with violates("||A|| <= 1/3"):
        unitary_triple_from_small_norm((1.0 / 3.0 + 2e-8) * u)


# -- input hygiene --


def test_rejects_non_finite():
    with pytest.raises(NonFinite):
        unitary_pair_from_contraction(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        unitary_triple_from_small_norm(np.array([[np.inf, 0.0], [0.0, 0.1]]))


def test_norms_match_numpy():
    rng = np.random.default_rng(4)
    a = complex_gaussian(rng, 3, 5)
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a))
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2))
