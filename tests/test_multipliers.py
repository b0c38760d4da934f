"""Multiplier assembly and the six certified inversion routes.

Every inversion is cross-checked against numpy's direct inverse of the
assembled matrix, a code path none of the routines take themselves, and
every certificate bracket must contain the true inverse norm.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_value_object, count_factorizations, identity_gframe, violates
from gframes import (
    GFrame,
    MultiplierCertificate,
    Proposition,
    WeightSequence,
    canonical_dual,
    frame_bounds,
    frame_operator,
    induced_frame,
    invert_bessel_perturb,
    invert_canonical_dual,
    invert_dual_mu_perturb,
    invert_dual_neumann,
    invert_mu_perturb,
    invert_via_bijection,
    lower_bound_from_invertible,
    multiplier,
    multiplier_norm_bound,
    scale_blocks,
    weighted_bounds,
)
from gframes.errors import (
    HypothesisError,
    MaxIterations,
    NonFinite,
    NonPositiveInput,
    ShapeMismatch,
)
from gframes import core
from gframes.kernel import operator_norm
from gframes.multipliers import _geometric_terms, _series_sum
from gframes.sampling import (
    _scaled_perturbation,
    bessel_perturb_instance,
    bijection_instance,
    canonical_dual_instance,
    dual_mu_perturb_instance,
    dual_perturb_instance,
    mu_perturb_instance,
    random_deficient,
    random_gframe,
    random_unitary,
)
from gframes.selftest import ROUNDOFF, inexact_dual, random_partition, tail_failures
from gframes.tolerances import TAU_DUAL


def check_certified(weights, frame, companion, m_inv, cert, swapped=False):
    """Residual small, direct inverse close, bracket contains the truth."""
    m_mat = multiplier(weights, frame, companion)
    if swapped:
        # sum_i m_i Theta_i* Lambda_i is the adjoint of M(conj m)
        m_mat = multiplier(np.conj(weights), frame, companion).conj().T
    direct = np.linalg.inv(m_mat)
    assert cert.residual <= 1e-7
    assert np.linalg.norm(m_mat @ m_inv - np.eye(frame.h_dim)) <= 1e-7
    assert np.linalg.norm(m_inv - direct) <= 1e-6 * (1.0 + np.linalg.norm(direct))
    true_norm = operator_norm(direct)
    assert cert.inverse_norm_lower - 1e-9 <= true_norm <= cert.inverse_norm_upper + 1e-9
    return direct


# -- weight sequences ----------------------------------------------------------


def test_weight_sequence_fields():
    w = WeightSequence(np.array([2.0, -3.0, 0.5]))
    assert w.norm_inf == 3.0
    assert w.semi_norm_bounds == (0.5, 3.0)
    assert w.is_real and not w.is_positive
    assert len(w) == 3


def test_weight_sequence_zero_entry_has_no_semi_norm():
    assert WeightSequence(np.array([1.0, 0.0])).semi_norm_bounds is None


def test_weight_sequence_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        WeightSequence(np.array([]))
    with pytest.raises(NonFinite):
        WeightSequence(np.array([1.0, np.nan]))
    w = WeightSequence(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        w.values[0] = 5.0


def test_weight_sequence_value_semantics():
    check_value_object(
        WeightSequence([1.0, 2.0j]),
        WeightSequence(np.array([1.0, 2.0j])),
        WeightSequence([1.0, 2.5j]),
    )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_weight_sequence_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    if rng.random() < 0.3:
        vals[rng.integers(0, n)] = 0.0
    w = WeightSequence(vals)
    moduli = np.abs(vals)
    assert w.norm_inf == pytest.approx(moduli.max())
    if moduli.min() > 0.0:
        assert w.semi_norm_bounds == pytest.approx((moduli.min(), moduli.max()))
    else:
        assert w.semi_norm_bounds is None
    assert w.is_real == bool(np.all(vals.imag == 0.0))


# -- assembly ------------------------------------------------------------------


def test_multiplier_of_ones_with_self_is_frame_operator():
    rng = np.random.default_rng(7)
    frame = random_gframe(rng, 4, [2, 1, 3])
    m = multiplier(np.ones(3), frame, frame)
    assert np.linalg.norm(m - frame_operator(frame)) <= 1e-12


def test_multiplier_identity_pair_is_diagonal_weights():
    frame = identity_gframe(2)
    m = multiplier([2.0, 3.0j], frame, frame)
    assert np.allclose(m, np.diag([2.0, 3.0j]))


def test_multiplier_matches_induced_vector_multiplier():
    # flattening m_i across the d_i vectors of each block reproduces M
    rng = np.random.default_rng(21)
    frame = random_gframe(rng, 3, [2, 2])
    companion = random_gframe(rng, 3, [2, 2])
    weights = np.array([2.0, 3.0j])
    psi = induced_frame(frame)
    phi = induced_frame(companion)
    flat = np.array([weights[i] for i, _ in psi.indices])
    vec_mult = np.einsum("j,jp,jq->pq", flat, psi.vectors, phi.vectors.conj())
    assert np.linalg.norm(multiplier(weights, frame, companion) - vec_mult) <= 1e-12


def test_multiplier_norm_bound_identity():
    frame = identity_gframe(2)
    assert multiplier_norm_bound([1.0, -2.0], frame, frame) == pytest.approx(2.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_multiplier_norm_bound_dominates(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng)
    frame = random_gframe(rng, dim, partition)
    companion = random_gframe(rng, dim, partition)
    weights = rng.normal(size=len(partition)) + 1j * rng.normal(size=len(partition))
    m = multiplier(weights, frame, companion)
    assert operator_norm(m) <= multiplier_norm_bound(weights, frame, companion) + 1e-9


def test_multiplier_rejects_weight_count_mismatch():
    frame = identity_gframe(2)
    with pytest.raises(ShapeMismatch):
        multiplier([1.0, 2.0, 3.0], frame, frame)


def test_certificate_rejects_inverted_bracket():
    with pytest.raises(ShapeMismatch):
        MultiplierCertificate(
            proposition=Proposition.P33_BIJECTION,
            hypothesis_values={},
            inverse_norm_lower=2.0,
            inverse_norm_upper=1.0,
            series_terms_for_tol=0,
            residual=0.0,
        )


# -- the series evaluator ------------------------------------------------------


@pytest.mark.parametrize("q", [0.5, 0.999])
def test_series_sum_matches_term_by_term_partial_sums(q):
    # binary splitting against the n-1 product loop it replaced
    rng = np.random.default_rng(60)
    dim = 5
    ratio = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ratio *= q / operator_norm(ratio)
    base = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    checkpoints = {*range(1, 65), 25_316, 54_057}
    partial = np.zeros_like(base)
    term = base
    for n_terms in range(1, max(checkpoints) + 1):
        partial = partial + term
        term = ratio @ term
        if n_terms in checkpoints:
            fast = _series_sum(base, ratio, n_terms)
            gap = np.linalg.norm(fast - partial)
            assert gap <= 1e-12 * np.linalg.norm(partial), (n_terms, gap)


def _series_sum_computing_every_power(base, ratio, n_terms):
    # the loop before the last bit's unread powers were skipped
    total, power = base, ratio
    for bit in bin(n_terms)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = base + ratio @ total
            power = power @ ratio
    return total


def test_series_sum_skips_only_unread_powers():
    rng = np.random.default_rng(61)
    ratio, base = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
    ratio *= 0.9 / operator_norm(ratio)
    for n_terms in range(1, 301):
        assert np.array_equal(_series_sum(base, ratio, n_terms),
                              _series_sum_computing_every_power(base, ratio, n_terms)), n_terms


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_geometric_tail_without_a_contraction_hits_term_cap(q):
    # a certified q + delta can reach 1 when the paper's q sits within delta of it
    with pytest.raises(MaxIterations):
        _geometric_terms(q, 1e-8)


# -- exact inversion through a bijection ---------------------------------------


def test_bijection_identity_instance():
    frame = identity_gframe(2)
    m_inv, cert = invert_via_bijection([1.0, 1.0], frame, np.eye(2))
    assert np.allclose(m_inv, np.eye(2))
    assert cert.proposition is Proposition.P33_BIJECTION
    assert cert.series_terms_for_tol == 0
    assert cert.residual <= 1e-12
    assert cert.hypothesis_values["sigma_min_G"] == pytest.approx(1.0)


def test_bijection_random_matches_direct_inverse():
    rng = np.random.default_rng(3)
    for _ in range(25):
        dim, partition = random_partition(rng)
        weights, frame, g = bijection_instance(rng, dim, partition)
        m_inv, cert = invert_via_bijection(weights, frame, g)
        companion = GFrame(dim, tuple(b @ g for b in frame.blocks))
        check_certified(weights, frame, companion, m_inv, cert)


def test_bijection_negative_weights():
    rng = np.random.default_rng(4)
    weights, frame, g = bijection_instance(rng, 3, [2, 2], negative=True)
    assert np.all(weights < 0.0)
    m_inv, cert = invert_via_bijection(weights, frame, g)
    companion = GFrame(3, tuple(b @ g for b in frame.blocks))
    check_certified(weights, frame, companion, m_inv, cert)


def test_bijection_rejects_mixed_complex_and_zero_weights():
    frame = identity_gframe(2)
    with violates("all m_i > 0 or all m_i < 0"):
        invert_via_bijection([1.0, -1.0], frame, np.eye(2))
    with violates("m_i real"):
        invert_via_bijection([1.0, 1.0j], frame, np.eye(2))
    with violates("all m_i > 0 or all m_i < 0"):
        invert_via_bijection([1.0, 0.0], frame, np.eye(2))


def test_bijection_rejects_singular_and_misshaped_g():
    frame = identity_gframe(2)
    with violates("sigma_min(G)^2 > rank floor"):
        invert_via_bijection([1.0, 1.0], frame, np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        invert_via_bijection([1.0, 1.0], frame, np.eye(3))


def test_bijection_factors_s_w_once(monkeypatch):
    # sigma(G) and the frame's eigenvalues; the verdict on S_w, the bracket
    # and S_w^-1 read the one SVD of the scaled T; G^-1 is one inv
    rng = np.random.default_rng(6)
    weights, frame, g = bijection_instance(rng, 4, [2, 1, 1])
    calls = count_factorizations(monkeypatch)
    m_inv, cert = invert_via_bijection(weights, frame, g)
    assert calls == {"svd": 2, "eigvalsh": 1, "inv": 1}
    companion = GFrame(4, tuple(b @ g for b in frame.blocks))
    check_certified(weights, frame, companion, m_inv, cert)


def test_bijection_rejects_g_whose_sigma_min_squared_is_below_the_floor():
    # sigma_min(G) = 1e-9 clears the rank floor TAU_RANK = 1e-10; its square,
    # the smallest eigenvalue of G* G, does not
    rng = np.random.default_rng(7)
    weights, frame, _ = bijection_instance(rng, 4, [2, 1, 1])
    g = (random_unitary(rng, 4) * [1.0, 0.7, 0.4, 1e-9]) @ random_unitary(rng, 4).conj().T
    with violates("sigma_min(G)^2 > rank floor") as caught:
        invert_via_bijection(weights, frame, g)
    assert caught.value.values == pytest.approx({"sigma_min(G)^2": 1e-18, "threshold": 1e-10},
                                                rel=1e-3)


def test_bijection_rejects_numerically_singular_weighted_operator():
    with violates("lambda_min(S_w) > rank floor") as caught:
        invert_via_bijection([1e-11, 1e-11], identity_gframe(2), np.eye(2))
    assert caught.value.values == pytest.approx({"lambda_min(S_w)": 1e-11, "threshold": 1e-10},
                                                rel=1e-3)


def test_bijection_rejects_deficient_frame():
    rng = np.random.default_rng(5)
    frame = random_deficient(rng, 3, [1, 1])
    with violates("A_Lambda > rank floor"):
        invert_via_bijection([1.0, 1.0], frame, np.eye(3))


# -- Neumann inversion against a dual pair -------------------------------------


def test_dual_neumann_unit_weights_give_identity():
    rng = np.random.default_rng(11)
    frame = random_gframe(rng, 3, [2, 2])
    dual = canonical_dual(frame)
    m_inv, cert = invert_dual_neumann(np.ones(2), frame, dual)
    assert np.linalg.norm(m_inv - np.eye(3)) <= 1e-10
    assert cert.series_terms_for_tol == 1
    assert cert.hypothesis_values["contraction"] == pytest.approx(0.0)


def test_dual_neumann_diagonal_example():
    # identity frame is its own canonical dual; M = diag(m)
    frame = identity_gframe(2)
    m_inv, cert = invert_dual_neumann([0.9, 1.1], frame, frame)
    assert cert.proposition is Proposition.P34_DUAL_PERTURB
    assert cert.hypothesis_values["lambda"] == pytest.approx(0.1)
    assert cert.hypothesis_values["contraction"] == pytest.approx(0.1)
    assert np.linalg.norm(m_inv - np.diag([1 / 0.9, 1 / 1.1])) <= 5e-9
    # the bracket 1/(1 +/- q) pins the true norm 1/0.9 at its upper edge
    assert cert.inverse_norm_upper == pytest.approx(1 / 0.9)


def test_dual_neumann_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dim, partition = random_partition(rng)
        weights, frame, dual = dual_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_dual_neumann(weights, frame, dual)
        check_certified(weights, frame, dual, m_inv, cert)


def test_dual_neumann_swapped_order():
    rng = np.random.default_rng(13)
    weights, frame, dual = dual_perturb_instance(rng, 4, [2, 3])
    m_inv, cert = invert_dual_neumann(weights, frame, dual, swapped=True)
    check_certified(weights, frame, dual, m_inv, cert, swapped=True)


def test_dual_neumann_partial_sums_obey_geometric_tail():
    # every K-term partial sum must sit within q^K/(1-q) of the inverse
    rng = np.random.default_rng(14)
    weights, frame, dual = dual_perturb_instance(rng, 3, [2, 2], frac=0.6)
    m_inv, cert = invert_dual_neumann(weights, frame, dual)
    q = cert.hypothesis_values["contraction"]
    m_mat = multiplier(weights, frame, dual)
    failures = tail_failures(
        np.linalg.inv(m_mat), np.eye(3), np.eye(3) - m_mat, q, cert.series_terms_for_tol, "P3.4"
    )
    assert not failures, failures


def test_dual_neumann_meets_tol_for_an_inexact_dual():
    # a dual accepted within TAU_DUAL: the series sums powers of I - M and
    # certifies q + delta, so tol still bounds ||X - M^-1||_2
    rng = np.random.default_rng(47)
    tol = 1e-10
    for _ in range(10):
        dim, partition = random_partition(rng)
        weights, frame, dual = dual_perturb_instance(rng, dim, partition)
        dual = inexact_dual(rng, frame, dual, TAU_DUAL / 2)
        m_inv, cert = invert_dual_neumann(weights, frame, dual, tol=tol)
        direct = check_certified(weights, frame, dual, m_inv, cert)
        assert operator_norm(m_inv - direct) <= tol + ROUNDOFF * operator_norm(direct)
        hv = cert.hypothesis_values
        assert hv["duality_defect"] == pytest.approx(TAU_DUAL / 2, rel=1e-6)
        q = hv["lambda"] * np.sqrt(hv["B_Lambda"] * hv["B_dual"])
        assert hv["contraction"] == pytest.approx(q + hv["duality_defect"], rel=1e-12)


def test_dual_neumann_rejects_non_dual_companion():
    rng = np.random.default_rng(15)
    frame = random_gframe(rng, 3, [2, 2])
    with violates("||sum_i D_i* Lambda_i - I||_F <= TAU_DUAL"):
        invert_dual_neumann(np.ones(2), frame, frame)


def test_dual_neumann_hypothesis_failure_names_inequality():
    frame = identity_gframe(2)
    with pytest.raises(HypothesisError) as exc:
        invert_dual_neumann([3.0, 1.0], frame, frame)
    assert exc.value.inequality == "lambda*sqrt(B_Lambda*B_dual) < 1"
    assert exc.value.values["lambda"] == pytest.approx(2.0)


def test_dual_neumann_near_critical_contraction_hits_term_cap():
    frame = identity_gframe(2)
    with pytest.raises(MaxIterations):
        invert_dual_neumann([1e-6, 1.0], frame, frame)


def test_dual_neumann_rejects_bad_tolerance():
    frame = identity_gframe(2)
    with pytest.raises(NonPositiveInput):
        invert_dual_neumann([1.0, 1.0], frame, frame, tol=0.0)


# -- canonical dual specialization ---------------------------------------------


def test_canonical_dual_inversion_random():
    rng = np.random.default_rng(16)
    for _ in range(20):
        dim, partition = random_partition(rng)
        weights, frame = canonical_dual_instance(rng, dim, partition)
        m_inv, cert = invert_canonical_dual(weights, frame)
        assert cert.proposition is Proposition.C35_CANONICAL_DUAL
        check_certified(weights, frame, canonical_dual(frame), m_inv, cert)


def test_canonical_dual_inversion_swapped():
    rng = np.random.default_rng(17)
    weights, frame = canonical_dual_instance(rng, 3, [1, 2, 2])
    m_inv, cert = invert_canonical_dual(weights, frame, swapped=True)
    check_certified(weights, frame, canonical_dual(frame), m_inv, cert, swapped=True)


def test_canonical_dual_certifies_q_plus_the_duality_defect(monkeypatch):
    # a computed dual off by delta within TAU_DUAL: ||I - M|| <= q + delta
    rng = np.random.default_rng(48)
    honest = core.canonical_dual
    monkeypatch.setattr(core, "canonical_dual",
                        lambda frame: inexact_dual(rng, frame, honest(frame), TAU_DUAL / 2))
    for _ in range(10):
        dim, partition = random_partition(rng)
        weights, frame = canonical_dual_instance(rng, dim, partition)
        m_inv, cert = invert_canonical_dual(weights, frame)
        hv = cert.hypothesis_values
        assert hv["duality_defect"] == pytest.approx(TAU_DUAL / 2, rel=1e-6)
        q = hv["lambda"] * np.sqrt(hv["B_Lambda"] / hv["A_Lambda"])
        assert hv["contraction"] == pytest.approx(q + hv["duality_defect"], rel=1e-12)


def test_canonical_dual_hypothesis_failure_names_inequality():
    rng = np.random.default_rng(18)
    frame = random_gframe(rng, 3, [2, 2])
    bounds = frame_bounds(frame)
    lam = 1.05 * np.sqrt(bounds.lower / bounds.upper)
    with pytest.raises(HypothesisError) as exc:
        invert_canonical_dual([1.0 + lam, 1.0], frame)
    assert exc.value.inequality == "lambda < sqrt(A_Lambda/B_Lambda)"
    assert "threshold" in exc.value.values


def test_canonical_dual_rejects_deficient():
    rng = np.random.default_rng(19)
    frame = random_deficient(rng, 3, [1, 1])
    with violates("A_Lambda > rank floor"):
        invert_canonical_dual([1.0, 1.0], frame)


# -- Bessel perturbation of the companion --------------------------------------


def test_bessel_perturb_frozen_example():
    # companion stretches the first axis by 1.1; the difference family
    # has Bessel bound exactly 0.01 and M = diag(1.1, 1)
    frame = identity_gframe(2)
    companion = GFrame(2, (np.array([[1.1, 0.0]]), np.array([[0.0, 1.0]])))
    m_inv, cert = invert_bessel_perturb(np.ones(2), frame, companion)
    assert cert.proposition is Proposition.P36_BESSEL_PERTURB
    assert cert.hypothesis_values["B_diff"] == pytest.approx(0.01)
    assert np.linalg.norm(m_inv - np.diag([1 / 1.1, 1.0])) <= 1e-8
    assert cert.inverse_norm_lower <= 1.0 <= cert.inverse_norm_upper


def test_bessel_perturb_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(20):
        dim, partition = random_partition(rng)
        weights, frame, companion = bessel_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_bessel_perturb(weights, frame, companion)
        check_certified(weights, frame, companion, m_inv, cert)


def test_bessel_perturb_negative_weights_and_swapped():
    rng = np.random.default_rng(23)
    weights, frame, companion = bessel_perturb_instance(
        rng, 3, [2, 2], negative=True
    )
    assert np.all(weights < 0.0)
    m_inv, cert = invert_bessel_perturb(weights, frame, companion, swapped=True)
    check_certified(weights, frame, companion, m_inv, cert, swapped=True)


def test_bessel_perturb_rejects_mixed_signs():
    frame = identity_gframe(2)
    with violates("all m_i > 0 or all m_i < 0"):
        invert_bessel_perturb([1.0, -1.0], frame, frame)


def test_bessel_perturb_rejects_numerically_singular_weighted_operator():
    # equal tiny weights pass both inequalities (B_diff = 0); S_w does not
    frame = identity_gframe(2)
    with violates("lambda_min(S_w) > rank floor") as caught:
        invert_bessel_perturb([1e-11, 1e-11], frame, frame)
    assert caught.value.values == pytest.approx({"lambda_min(S_w)": 1e-11, "threshold": 1e-10},
                                                rel=1e-3)


def test_bessel_perturb_large_difference_fails_hypothesis():
    frame = identity_gframe(2)
    companion = GFrame(2, (np.array([[3.0, 0.0]]), np.array([[0.0, 1.0]])))
    with pytest.raises(HypothesisError) as exc:
        invert_bessel_perturb(np.ones(2), frame, companion)
    assert exc.value.inequality == "B_diff < A_Lambda^2/B_Lambda"


def test_bessel_perturb_weight_spread_fails_hypothesis():
    # B_diff = 0.01 allows spread up to 10; weights (1, 100) exceed it
    frame = identity_gframe(2)
    companion = GFrame(2, (np.array([[1.1, 0.0]]), np.array([[0.0, 1.0]])))
    with pytest.raises(HypothesisError) as exc:
        invert_bessel_perturb([1.0, 100.0], frame, companion)
    assert exc.value.inequality == "b/a < A_Lambda/sqrt(B_diff*B_Lambda)"


def test_bessel_perturb_partial_sums_obey_geometric_tail():
    # base sign*S_w^-1, ratio S_w^-1 (S_w - sign*M), tail ||base|| q^K/(1-q)
    rng = np.random.default_rng(24)
    weights, frame, companion = bessel_perturb_instance(
        rng, 3, [2, 2], negative=True, frac=0.6
    )
    _, cert = invert_bessel_perturb(weights, frame, companion)
    q = cert.hypothesis_values["contraction"]
    assert 0.0 < q < 1.0
    m_mat = multiplier(weights, frame, companion)
    s_w = frame_operator(scale_blocks(frame, np.sqrt(np.abs(weights))))
    s_w_inv = np.linalg.inv(s_w)
    ratio = s_w_inv @ (s_w + m_mat)
    failures = tail_failures(
        np.linalg.inv(m_mat), -s_w_inv, ratio, q, cert.series_terms_for_tol, "P3.6"
    )
    assert not failures, failures


# -- perturbation measured by mu -----------------------------------------------


def test_mu_perturb_trivial_companion_recovers_frame_operator_inverse():
    rng = np.random.default_rng(31)
    frame = random_gframe(rng, 3, [2, 2])
    m_inv, cert = invert_mu_perturb(np.ones(2), frame, frame)
    assert cert.hypothesis_values["mu_computed"] <= 1e-12
    s_inv = np.linalg.inv(frame_operator(frame))
    assert np.linalg.norm(m_inv - s_inv) <= 1e-9


def test_mu_perturb_random_instances():
    rng = np.random.default_rng(32)
    for _ in range(20):
        dim, partition = random_partition(rng)
        weights, frame, companion = mu_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_mu_perturb(weights, frame, companion)
        assert cert.proposition is Proposition.P37_MU_PERTURB
        assert cert.hypothesis_values["mTheta_lower"] > 0.0
        check_certified(weights, frame, companion, m_inv, cert)


def test_mu_perturb_far_companion_fails_hypothesis():
    frame = identity_gframe(2)
    companion = GFrame(2, (np.array([[4.0, 0.0]]), np.array([[0.0, 1.0]])))
    with pytest.raises(HypothesisError) as exc:
        invert_mu_perturb(np.ones(2), frame, companion)
    assert exc.value.inequality == "mu < A_Lambda^2/B_Lambda"


def test_mu_perturb_partial_sums_obey_geometric_tail():
    rng = np.random.default_rng(35)
    weights, frame, companion = mu_perturb_instance(rng, 3, [2, 2], frac=0.6)
    _, cert = invert_mu_perturb(weights, frame, companion)
    q = cert.hypothesis_values["contraction"]
    assert 0.0 < q < 1.0
    m_mat = multiplier(weights, frame, companion)
    s = frame_operator(frame)
    s_inv = np.linalg.inv(s)
    failures = tail_failures(
        np.linalg.inv(m_mat), s_inv, s_inv @ (s - m_mat), q,
        cert.series_terms_for_tol, "P3.7",
    )
    assert not failures, failures


# -- dual-referenced mu perturbation -------------------------------------------


def test_dual_mu_trivial_companion_gives_identity():
    rng = np.random.default_rng(41)
    frame = random_gframe(rng, 3, [2, 2])
    dual = canonical_dual(frame)
    m_inv, cert = invert_dual_mu_perturb(np.ones(2), frame, dual, dual)
    assert cert.hypothesis_values["mu_computed"] <= 1e-12
    assert cert.series_terms_for_tol == 1
    assert np.linalg.norm(m_inv - np.eye(3)) <= 1e-10


def test_dual_mu_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        dim, partition = random_partition(rng)
        weights, frame, dual, companion = dual_mu_perturb_instance(
            rng, dim, partition
        )
        m_inv, cert = invert_dual_mu_perturb(weights, frame, dual, companion)
        assert cert.proposition is Proposition.P38_DUAL_MU_PERTURB
        check_certified(weights, frame, companion, m_inv, cert)


def test_dual_mu_swapped_order():
    rng = np.random.default_rng(43)
    weights, frame, dual, companion = dual_mu_perturb_instance(rng, 4, [2, 3])
    m_inv, cert = invert_dual_mu_perturb(
        weights, frame, dual, companion, swapped=True
    )
    check_certified(weights, frame, companion, m_inv, cert, swapped=True)


def test_dual_mu_partial_sums_obey_geometric_tail():
    rng = np.random.default_rng(44)
    weights, frame, dual, companion = dual_mu_perturb_instance(
        rng, 3, [2, 2], frac=0.5
    )
    m_inv, cert = invert_dual_mu_perturb(weights, frame, dual, companion)
    q = cert.hypothesis_values["contraction"]
    m_mat = multiplier(weights, frame, companion)
    direct = np.linalg.inv(m_mat)
    failures = tail_failures(
        direct, np.eye(3), np.eye(3) - m_mat, q, cert.series_terms_for_tol, "P3.8"
    )
    assert not failures, failures


def test_swapped_complex_weights_measure_conjugated_perturbation():
    # with Theta_i = R_i/m_i the unswapped perturbation vanishes, but the
    # swapped multiplier is M(conj m)*, far from S (P3.7) or I (P3.8)
    frame = identity_gframe(2)
    weights = np.exp(1j * np.array([1.0, -0.7]))
    companion = GFrame(2, tuple(b / m for b, m in zip(frame.blocks, weights)))
    with violates("mu < A_Lambda^2/B_Lambda"):
        invert_mu_perturb(weights, frame, companion, swapped=True)
    with violates("mu < 1/B_Lambda"):
        invert_dual_mu_perturb(weights, frame, frame, companion, swapped=True)
    # random instances: whatever a swapped route still certifies is right
    rng = np.random.default_rng(46)
    rejected = 0
    for _ in range(40):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        dual = canonical_dual(frame)
        n = len(partition)
        weights = rng.uniform(0.7, 1.4, n) * np.exp(1j * rng.uniform(-1.5, 1.5, n))
        for reference in (frame, dual):
            companion = GFrame(
                dim, tuple(b / m for b, m in zip(reference.blocks, weights))
            )
            try:
                if reference is frame:
                    m_inv, cert = invert_mu_perturb(
                        weights, frame, companion, swapped=True
                    )
                else:
                    m_inv, cert = invert_dual_mu_perturb(
                        weights, frame, dual, companion, swapped=True
                    )
            except HypothesisError as exc:  # the route's own mu inequality, nothing else
                assert exc.inequality in ("mu < A_Lambda^2/B_Lambda", "mu < 1/B_Lambda")
                rejected += 1
                continue
            check_certified(weights, frame, companion, m_inv, cert, swapped=True)
    assert rejected >= 60


def test_dual_mu_certifies_q_plus_the_duality_defect():
    # a dual accepted within TAU_DUAL: ||I - M|| <= sqrt(mu B_Lambda) + delta
    rng = np.random.default_rng(49)
    for _ in range(10):
        dim, partition = random_partition(rng)
        weights, frame, dual, companion = dual_mu_perturb_instance(rng, dim, partition)
        dual = inexact_dual(rng, frame, dual, TAU_DUAL / 2)
        m_inv, cert = invert_dual_mu_perturb(weights, frame, dual, companion)
        check_certified(weights, frame, companion, m_inv, cert)
        hv = cert.hypothesis_values
        assert hv["duality_defect"] == pytest.approx(TAU_DUAL / 2, rel=1e-6)
        q = np.sqrt(hv["mu"] * hv["B_Lambda"])
        assert hv["contraction"] == pytest.approx(q + hv["duality_defect"], rel=1e-12)


def test_dual_mu_rejects_non_dual_reference():
    rng = np.random.default_rng(45)
    frame = random_gframe(rng, 3, [2, 2])
    with violates("||sum_i D_i* Lambda_i - I||_F <= TAU_DUAL"):
        invert_dual_mu_perturb(np.ones(2), frame, frame, frame)


def test_dual_mu_far_companion_fails_hypothesis():
    frame = identity_gframe(2)
    companion = GFrame(2, (np.array([[3.0, 0.0]]), np.array([[0.0, 1.0]])))
    with pytest.raises(HypothesisError) as exc:
        invert_dual_mu_perturb(np.ones(2), frame, frame, companion)
    assert exc.value.inequality == "mu < 1/B_Lambda"


def test_mu_routes_invert_with_the_computed_mu():
    # companions 1e-13 off the reference: the series stops as soon as the
    # computed mu allows, and X stays within tol of M^-1 on both routes
    for seed in range(10):
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, 4, (2, 3))
        dual = canonical_dual(frame)
        for reference, invert in ((frame, invert_mu_perturb),
                                  (dual, partial(invert_dual_mu_perturb, dual=dual))):
            companion = GFrame.from_stacked(
                reference.analysis_matrix() + _scaled_perturbation(rng, frame, 1e-13),
                frame.partition)
            m_inv, cert = invert(np.ones(2), frame, companion=companion)
            hv = cert.hypothesis_values
            assert hv["mu"] == hv["mu_computed"] > 0.0
            exact = np.linalg.inv(multiplier(np.ones(2), frame, companion))
            assert np.linalg.norm(m_inv - exact, 2) <= 1e-8, seed
            with pytest.raises(TypeError):
                invert(np.ones(2), frame, companion=companion, mu=0.0)


# -- lower bound from an invertible multiplier ----------------------------------


def test_lower_bound_identity_multiplier():
    assert lower_bound_from_invertible(np.eye(2), 1.0) == pytest.approx(1.0)
    assert lower_bound_from_invertible(2 * np.eye(2), 4.0) == pytest.approx(1.0)


def test_lower_bound_certifies_both_weighted_families():
    rng = np.random.default_rng(51)
    for _ in range(15):
        dim, partition = random_partition(rng)
        weights, frame, dual = dual_perturb_instance(rng, dim, partition)
        m_mat = multiplier(weights, frame, dual)
        mods = np.abs(weights)
        lb_lambda = lower_bound_from_invertible(m_mat, frame_bounds(dual).upper)
        assert weighted_bounds(frame, mods).lower >= lb_lambda - 1e-9
        lb_theta = lower_bound_from_invertible(m_mat, frame_bounds(frame).upper)
        assert weighted_bounds(dual, mods).lower >= lb_theta - 1e-9


def test_lower_bound_rejects_bad_inputs():
    with violates("sigma_min(M)^2 > rank floor"):
        lower_bound_from_invertible(np.zeros((2, 2)), 1.0)
    with pytest.raises(NonPositiveInput):
        lower_bound_from_invertible(np.eye(2), 0.0)
    with pytest.raises(ShapeMismatch):
        lower_bound_from_invertible(np.ones((2, 3)), 1.0)
