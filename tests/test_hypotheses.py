"""Every hypothesis check of the library, made to fail once.

Each case runs one call that breaks one hypothesis and reads back the one
`HypothesisError` type, the exact failed condition, and the values behind
it: where the check compares a computed number with a threshold, both,
and they confirm that the condition fails.
"""

import math
import pickle

import numpy as np
import pytest

from conftest import identity_gframe
from gframes import controlled, core, decompositions, kernel, multipliers
from gframes.errors import HypothesisError
from gframes.sampling import (
    random_coisometry,
    random_deficient,
    random_g_riesz,
    random_gframe,
    random_unitary,
)
from gframes.tolerances import TAU_CLASS, TAU_DUAL, TAU_NORM, TAU_RANK

THRESHOLD = "threshold"


def _rng(seed):
    return np.random.default_rng(seed)


def _control(matrix):
    return controlled.ControlOperator(np.array(matrix, dtype=float))


def _row_frame(*rows):
    """A g-frame on C^2 with one 1 x 2 block per row."""
    return core.GFrame(2, tuple(np.array([row], dtype=float) for row in rows))


def _exceeds(values, key):
    """`values` are exactly `key` and the threshold it exceeds."""
    return values.keys() == {key, THRESHOLD} and values[key] > values[THRESHOLD]


def _non_commuting_pair():
    # a positive control with a random eigenbasis does not commute with S
    rng = _rng(74)
    frame = random_gframe(rng, 4, (2, 2, 1))
    u = random_unitary(rng, 4)
    return frame, controlled.ControlOperator((u * rng.uniform(0.5, 2, 4)) @ u.conj().T)


# (site, call, inequality, whether the values confirm that it fails)
CASES = [
    # core
    ("core._require_frame", lambda: core.canonical_dual(random_deficient(_rng(61), 3, (1, 2))),
     "A_Lambda > rank floor", lambda v: v == {THRESHOLD: TAU_RANK}),
    # kernel
    ("kernel.unitary_pair_from_contraction",
     lambda: kernel.unitary_pair_from_contraction(1.5 * np.eye(2)), "||A|| <= 1",
     lambda v: v == {"||A||": pytest.approx(1.5), THRESHOLD: 1.0 + TAU_NORM}),
    ("kernel.unitary_triple_from_small_norm",
     lambda: kernel.unitary_triple_from_small_norm(0.5 * np.eye(2)), "||A|| <= 1/3",
     lambda v: v == {"||A||": pytest.approx(0.5), THRESHOLD: 1.0 / 3.0 + TAU_NORM}),
    # controlled
    ("controlled.ControlOperator", lambda: _control([[0.0, 1.0], [0.0, 0.0]]),
     "sigma_min(C)^2 > rank floor", lambda v: v == {"sigma_min(C)^2": 0.0, THRESHOLD: TAU_RANK}),
    ("controlled.controlled_equivalence",
     lambda: controlled.controlled_equivalence(identity_gframe(2),
                                               _control([[1.0, 1.0], [0.0, 1.0]])),
     "C = C*", lambda v: v == {"||C - C*||_F": pytest.approx(math.sqrt(2)), THRESHOLD: 1e-8}),
    ("controlled._positive_weights",
     lambda: controlled.weighted_multiplier_as_frame_operator(identity_gframe(2), [1.0, -1.0]),
     "w_i real and w_i > 0", lambda v: v == {"min Re w_i": -1.0, "max|Im w_i|": 0.0}),
    ("controlled.weight_from_control: self-adjoint",
     lambda: controlled.weight_from_control(identity_gframe(2),
                                            _control([[1.0, 1.0], [0.0, 1.0]])),
     "C = C*", lambda v: v == {"||C - C*||_F": pytest.approx(math.sqrt(2)), THRESHOLD: 1e-8}),
    ("controlled.weight_from_control: zero block",
     lambda: controlled.weight_from_control(_row_frame([1.0, 0.0], [0.0, 0.0]),
                                            _control(np.eye(2))),
     "||Lambda_1||_F^2 > 0", lambda v: v == {"||Lambda_i||_F^2": 0.0}),
    ("controlled.weight_from_control: eigen relation",
     lambda: controlled.weight_from_control(identity_gframe(2), _control([[2.0, 1.0], [1.0, 2.0]])),
     "C Lambda_0* = w_0 Lambda_0*",
     lambda v: v == {"residual": pytest.approx(1.0),
                     THRESHOLD: pytest.approx(1e-8 * (1.0 + math.sqrt(5.0)))}),
    ("controlled.weight_from_control: positive weights",
     lambda: controlled.weight_from_control(identity_gframe(2), _control(np.diag([-1.0, 1.0]))),
     "w_i > 0", lambda v: v == {"min w_i": -1.0}),
    ("controlled.weighted_dual: real weights",
     lambda: controlled.weighted_dual(identity_gframe(2), [1.0, 1.0j]),
     "w_i real", lambda v: v == {"max|Im w_i|": 1.0}),
    ("controlled.weighted_dual: weights away from zero",
     lambda: controlled.weighted_dual(identity_gframe(2), [1e-320, 1.0]),
     "min|w_i| >= smallest normal float",
     lambda v: v == {"min|w_i|": 1e-320, THRESHOLD: np.finfo(float).tiny}),
    ("controlled._require_controlled_pair: positive",
     lambda: controlled._require_controlled_pair(identity_gframe(2),
                                                 _control(np.diag([-1.0, 1.0]))),
     "lambda_min(C) > rank floor", lambda v: v == {"lambda_min(C)": -1.0, THRESHOLD: TAU_RANK}),
    ("controlled._require_controlled_pair: commuting",
     lambda: controlled._require_controlled_pair(*_non_commuting_pair()), "S C* = C S",
     lambda v: _exceeds(v, "||S C* - C S||_F")),
    # decompositions
    ("decompositions._require_square_frame",
     lambda: decompositions.decompose_three_gonb(random_gframe(_rng(229), 3, (2, 2))),
     "sum(d_i) = h_dim", lambda v: v == {"sum(d_i)": 4, "h_dim": 3}),
    ("decompositions.decompose_two_gonb_combo",
     lambda: decompositions.decompose_two_gonb_combo(random_gframe(_rng(241), 3, (2, 2))),
     "sum(d_i) = h_dim", lambda v: v == {"sum(d_i)": 4, "h_dim": 3}),
    ("decompositions.coisometry_image: g-ONB",
     lambda: decompositions.coisometry_image(random_g_riesz(_rng(257), 4, (2, 2)),
                                             random_coisometry(_rng(0), 2, 4)),
     "sum(d_i) = h_dim and ||S - I||_F <= TAU_CLASS",
     lambda v: v.keys() == {"sum(d_i)", "h_dim", "||S - I||_F", THRESHOLD}
     and v["sum(d_i)"] == v["h_dim"] == 4 and v["||S - I||_F"] > v[THRESHOLD] == TAU_CLASS),
    ("decompositions.coisometry_image: columns",
     lambda: decompositions.coisometry_image(identity_gframe(4), random_coisometry(_rng(0), 2, 3)),
     "columns(K) = h_dim", lambda v: v == {"columns(K)": 3, "h_dim": 4}),
    ("decompositions.coisometry_image: coisometry",
     lambda: decompositions.coisometry_image(identity_gframe(4), np.ones((2, 4))),
     "||K K* - I||_F <= TAU_CLASS",
     lambda v: v == {"||K K* - I||_F": pytest.approx(math.sqrt(50.0)), THRESHOLD: TAU_CLASS}),
    # multipliers
    ("multipliers._weighted_inverse",
     lambda: multipliers.invert_via_bijection([1e-11, 1e-11], identity_gframe(2), np.eye(2)),
     "lambda_min(S_w) > rank floor",
     lambda v: v == {"lambda_min(S_w)": pytest.approx(1e-11), THRESHOLD: TAU_RANK}),
    ("multipliers._definite_sign: real",
     lambda: multipliers.invert_via_bijection([1.0, 1.0j], identity_gframe(2), np.eye(2)),
     "m_i real", lambda v: v == {"max|Im m_i|": 1.0}),
    ("multipliers._definite_sign: one sign",
     lambda: multipliers.invert_via_bijection([1.0, -1.0], identity_gframe(2), np.eye(2)),
     "all m_i > 0 or all m_i < 0", lambda v: v == {"min m_i": -1.0, "max m_i": 1.0}),
    ("multipliers.invert_via_bijection",
     lambda: multipliers.invert_via_bijection([1.0, 1.0], identity_gframe(2), np.zeros((2, 2))),
     "sigma_min(G)^2 > rank floor", lambda v: v == {"sigma_min(G)^2": 0.0, THRESHOLD: TAU_RANK}),
    ("multipliers.invert_dual_neumann: dual",
     lambda: multipliers.invert_dual_neumann(np.ones(2), *[random_gframe(_rng(15), 3, [2, 2])] * 2),
     "||sum_i D_i* Lambda_i - I||_F <= TAU_DUAL",
     lambda v: _exceeds(v, "duality_defect") and v[THRESHOLD] == TAU_DUAL),
    ("multipliers.invert_dual_neumann: contraction",
     lambda: multipliers.invert_dual_neumann([3.0, 1.0], identity_gframe(2), identity_gframe(2)),
     "lambda*sqrt(B_Lambda*B_dual) < 1",
     lambda v: v["contraction"] == pytest.approx(2.0) and v[THRESHOLD] == 1.0),
    ("multipliers.invert_canonical_dual",
     lambda: multipliers.invert_canonical_dual([3.0, 1.0], _row_frame([1.0, 0.0], [0.0, 2.0])),
     "lambda < sqrt(A_Lambda/B_Lambda)",
     lambda v: v["lambda"] == 2.0 and v[THRESHOLD] == pytest.approx(0.5)),
    ("multipliers.invert_bessel_perturb: B_diff",
     lambda: multipliers.invert_bessel_perturb(np.ones(2), identity_gframe(2),
                                               _row_frame([3.0, 0.0], [0.0, 1.0])),
     "B_diff < A_Lambda^2/B_Lambda",
     lambda v: v["B_diff"] == pytest.approx(4.0) and v[THRESHOLD] == 1.0),
    ("multipliers.invert_bessel_perturb: b/a",
     lambda: multipliers.invert_bessel_perturb([1.0, 100.0], identity_gframe(2),
                                               _row_frame([1.1, 0.0], [0.0, 1.0])),
     "b/a < A_Lambda/sqrt(B_diff*B_Lambda)",
     lambda v: v["contraction"] == pytest.approx(10.0) and v[THRESHOLD] == 1.0),
    ("multipliers.invert_mu_perturb",
     lambda: multipliers.invert_mu_perturb(np.ones(2), identity_gframe(2),
                                           _row_frame([4.0, 0.0], [0.0, 1.0])),
     "mu < A_Lambda^2/B_Lambda", lambda v: v["mu"] == pytest.approx(9.0) and v[THRESHOLD] == 1.0),
    ("multipliers.invert_dual_mu_perturb: dual",
     lambda: multipliers.invert_dual_mu_perturb(np.ones(2),
                                                *[random_gframe(_rng(45), 3, [2, 2])] * 3),
     "||sum_i D_i* Lambda_i - I||_F <= TAU_DUAL",
     lambda v: _exceeds(v, "duality_defect") and v[THRESHOLD] == TAU_DUAL),
    ("multipliers.invert_dual_mu_perturb: mu",
     lambda: multipliers.invert_dual_mu_perturb(np.ones(2), identity_gframe(2), identity_gframe(2),
                                                _row_frame([3.0, 0.0], [0.0, 1.0])),
     "mu < 1/B_Lambda", lambda v: v["mu"] == pytest.approx(4.0) and v[THRESHOLD] == 1.0),
    ("multipliers.lower_bound_from_invertible",
     lambda: multipliers.lower_bound_from_invertible(np.zeros((2, 2)), 1.0),
     "sigma_min(M)^2 > rank floor", lambda v: v == {"sigma_min(M)^2": 0.0, THRESHOLD: TAU_RANK}),
]


@pytest.mark.parametrize("call, inequality, confirms", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_hypothesis_fails_with_its_condition_and_values(call, inequality, confirms):
    with pytest.raises(HypothesisError) as caught:
        call()
    exc = caught.value
    assert type(exc) is HypothesisError
    assert exc.inequality == inequality
    assert confirms(exc.values), exc.values
    assert str(exc).startswith(f"hypothesis violated: {inequality}")


def test_a_hypothesis_error_survives_pickling():
    # as it must to cross a process boundary: same condition, values and text
    exc = HypothesisError("mu < 1/B_Lambda", {"mu": 4.0, "threshold": 1.0})
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is HypothesisError
    assert (again.inequality, again.values, str(again)) == (exc.inequality, exc.values, str(exc))
