"""Controlled frames: the S C* form, commutation, and bound arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_value_object, complex_gaussian, count_factorizations, identity_gframe
from gframes import (
    ControlOperator,
    GFrame,
    controlled_bound_arithmetic,
    controlled_bounds,
    controlled_equivalence,
    controlled_frame_operator,
    frame_bounds,
    frame_operator,
    induced_controlled_frame,
    verify_commutation,
)
from gframes.errors import (
    NonFinite,
    NonPositiveInput,
    NotSelfAdjoint,
    ShapeMismatch,
    Singular,
)
from gframes.kernel import frobenius_norm
from gframes.sampling import random_deficient, random_gframe, random_unitary
from gframes.selftest import random_partition


def random_positive(rng, dim, spread=(0.5, 3.0)):
    u = random_unitary(rng, dim)
    return ControlOperator((u * rng.uniform(*spread, dim)) @ u.conj().T)


def commuting_positive(rng, frame):
    # a positive polynomial in S commutes with S by construction
    a, b = rng.uniform(0.2, 2.0, 2)
    return ControlOperator(a * np.eye(frame.h_dim) + b * frame_operator(frame))


# -- control operators ---------------------------------------------------------


def test_control_operator_flags():
    ident = ControlOperator(np.eye(2))
    assert ident.is_self_adjoint and ident.is_positive
    assert ident.bounds == pytest.approx((1.0, 1.0))

    indefinite = ControlOperator(np.diag([-1.0, 1.0]))
    assert indefinite.is_self_adjoint and not indefinite.is_positive
    assert indefinite.bounds == pytest.approx((-1.0, 1.0))
    assert indefinite.norm == pytest.approx(1.0)

    shear = ControlOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not shear.is_self_adjoint
    assert shear.bounds is None
    assert shear.norm == pytest.approx(np.linalg.norm(shear.matrix, 2))


def test_self_adjoint_control_is_factored_once(monkeypatch):
    # invertibility, bounds and ||C|| share one eigvalsh of C; the criterion
    # then adds only the eigvalsh of S C* and the eigvalsh of the frame's S
    rng = np.random.default_rng(58)
    frame = random_gframe(rng, 4, [2, 2, 1])
    c = commuting_positive(rng, frame).matrix
    calls = count_factorizations(monkeypatch)
    control = ControlOperator(c)
    assert calls == {"eigvalsh": 1}
    assert controlled_equivalence(frame, control) == (True, True)
    assert calls == {"eigvalsh": 3}


def test_non_self_adjoint_control_is_factored_once(monkeypatch):
    # invertibility and ||C|| share one svd; no eigvalsh of (C + C*)/2
    calls = count_factorizations(monkeypatch)
    shear = ControlOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not shear.is_self_adjoint and not shear.is_positive
    assert calls == {"svd": 1}


def test_control_operator_value_semantics():
    m = random_positive(np.random.default_rng(59), 4).matrix
    changed = m.copy()
    changed[0, 3] += 1e-9
    check_value_object(ControlOperator(m), ControlOperator(m.copy()), ControlOperator(changed))


def test_control_operator_rejects_bad_matrices():
    with pytest.raises(Singular):
        ControlOperator(np.zeros((2, 2)))
    with pytest.raises(Singular):
        ControlOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        ControlOperator(np.ones((2, 3)))
    with pytest.raises(NonFinite):
        ControlOperator(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# -- the controlled operator and its bounds ------------------------------------


def test_identity_control_recovers_frame_operator():
    rng = np.random.default_rng(61)
    frame = random_gframe(rng, 3, [2, 2])
    s_c = controlled_frame_operator(frame, ControlOperator(np.eye(3)))
    assert np.linalg.norm(s_c - frame_operator(frame)) <= 1e-12


def test_controlled_operator_blockwise_oracle():
    rng = np.random.default_rng(62)
    frame = random_gframe(rng, 4, [1, 2, 3])
    control = random_positive(rng, 4)
    s_c = controlled_frame_operator(frame, control)
    acc = np.zeros((4, 4), dtype=np.complex128)
    for b in frame.blocks:
        acc += b.conj().T @ b @ control.matrix.conj().T
    assert np.linalg.norm(s_c - acc) <= 1e-12


def test_controlled_bounds_diagonal_example():
    frame = identity_gframe(2)
    rep = controlled_bounds(frame, ControlOperator(np.diag([2.0, 3.0])))
    assert rep.lower == pytest.approx(2.0)
    assert rep.upper == pytest.approx(3.0)
    assert rep.is_controlled_frame and rep.form_self_adjoint


def test_controlled_bounds_indefinite_control():
    frame = identity_gframe(2)
    rep = controlled_bounds(frame, ControlOperator(np.diag([-1.0, 1.0])))
    assert rep.form_self_adjoint
    assert not rep.is_controlled_frame
    assert rep.lower == pytest.approx(-1.0)


def test_controlled_bounds_non_commuting_form_is_not_self_adjoint():
    # S = diag(1, 2) against the swap: S C* = [[0, 1], [2, 0]]
    frame = GFrame(
        2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.0)]]))
    )
    swap = ControlOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = controlled_bounds(frame, swap)
    assert not rep.form_self_adjoint
    assert not rep.is_controlled_frame


def test_controlled_bounds_with_control_equal_to_s():
    rng = np.random.default_rng(63)
    frame = random_gframe(rng, 3, [2, 2])
    s = frame_operator(frame)
    rep = controlled_bounds(frame, ControlOperator(s))
    eigs = np.linalg.eigvalsh(s)
    assert rep.lower == pytest.approx(eigs[0] ** 2, abs=1e-9)
    assert rep.upper == pytest.approx(eigs[-1] ** 2, abs=1e-9)
    assert rep.is_controlled_frame


def test_controlled_shape_mismatch():
    frame = identity_gframe(2)
    with pytest.raises(ShapeMismatch):
        controlled_frame_operator(frame, ControlOperator(np.eye(3)))


# -- commutation ---------------------------------------------------------------


def test_commutation_with_identity_and_with_s():
    rng = np.random.default_rng(64)
    frame = random_gframe(rng, 3, [2, 2])
    assert verify_commutation(frame, ControlOperator(np.eye(3))).holds
    assert verify_commutation(
        frame, ControlOperator(frame_operator(frame))
    ).holds


def test_commutation_defect_of_the_swap_counterexample():
    frame = GFrame(
        2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.0)]]))
    )
    swap = ControlOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    result = verify_commutation(frame, swap)
    assert not result.holds
    assert result.defect == pytest.approx(np.sqrt(2.0))


# -- the equivalence criterion --------------------------------------------------


def test_equivalence_holds_for_commuting_positive_control():
    rng = np.random.default_rng(65)
    frame = random_gframe(rng, 3, [2, 2])
    lhs, rhs = controlled_equivalence(frame, commuting_positive(rng, frame))
    assert lhs and rhs


def test_equivalence_false_on_both_sides_for_non_commuting_control():
    rng = np.random.default_rng(66)
    frame = random_gframe(rng, 4, [2, 3])
    control = random_positive(rng, 4)
    assert not verify_commutation(frame, control).holds
    lhs, rhs = controlled_equivalence(frame, control)
    assert lhs == rhs == False  # noqa: E712


def test_equivalence_false_for_deficient_frame():
    rng = np.random.default_rng(67)
    frame = random_deficient(rng, 3, [1, 1])
    lhs, rhs = controlled_equivalence(frame, ControlOperator(np.eye(3)))
    assert lhs == rhs == False  # noqa: E712


def test_equivalence_false_for_indefinite_control():
    frame = identity_gframe(2)
    lhs, rhs = controlled_equivalence(
        frame, ControlOperator(np.diag([-1.0, 1.0]))
    )
    assert lhs == rhs == False  # noqa: E712


def test_equivalence_rejects_non_self_adjoint_control():
    frame = identity_gframe(2)
    with pytest.raises(NotSelfAdjoint):
        controlled_equivalence(
            frame, ControlOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
        )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_equivalence_sides_always_agree(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng)
    frame = random_gframe(rng, dim, partition)
    if rng.random() < 0.5:
        control = commuting_positive(rng, frame)
    else:
        control = random_positive(rng, dim)
    lhs, rhs = controlled_equivalence(frame, control)
    assert lhs == rhs


# -- bound arithmetic -----------------------------------------------------------


def test_bound_arithmetic_worked_example():
    derived = controlled_bound_arithmetic(2.0, 3.0, 1.0, 1.0, 2.0, 3.0)
    assert derived.frame_operator_bounds == pytest.approx((2 / 3, 3 / 2))
    assert derived.control_bounds == pytest.approx((2.0, 3.0))
    assert derived.controlled_bounds == pytest.approx((2.0, 3.0))


def test_bound_arithmetic_identity_fixpoint():
    derived = controlled_bound_arithmetic(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert derived.frame_operator_bounds == (1.0, 1.0)
    assert derived.control_bounds == (1.0, 1.0)
    assert derived.controlled_bounds == (1.0, 1.0)


def test_bound_arithmetic_rejects_non_positive_values():
    with pytest.raises(NonPositiveInput):
        controlled_bound_arithmetic(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(NonPositiveInput):
        controlled_bound_arithmetic(1.0, 1.0, 1.0, -2.0, 1.0, 1.0)


def test_bound_arithmetic_intervals_contain_true_spectra():
    rng = np.random.default_rng(68)
    for _ in range(20):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        control = commuting_positive(rng, frame)
        fb = frame_bounds(frame)
        cb = controlled_bounds(frame, control)
        assert cb.is_controlled_frame
        c_l, c_u = control.bounds
        derived = controlled_bound_arithmetic(
            cb.lower, cb.upper, fb.lower, fb.upper, c_l, c_u
        )
        lo, hi = derived.frame_operator_bounds
        assert lo - 1e-9 <= fb.lower and fb.upper <= hi + 1e-9
        lo, hi = derived.control_bounds
        assert lo - 1e-9 <= c_l and c_u <= hi + 1e-9
        lo, hi = derived.controlled_bounds
        assert lo - 1e-9 <= cb.lower and cb.upper <= hi + 1e-9


# -- induced vector family -------------------------------------------------------


def test_induced_controlled_identity_frame():
    frame = identity_gframe(2)
    control = ControlOperator(np.diag([2.0, 3.0]))
    vframe, holds = induced_controlled_frame(frame, control)
    assert holds
    assert np.allclose(vframe.vectors, np.eye(2))


def test_induced_controlled_identity_holds_on_vectors():
    rng = np.random.default_rng(69)
    frame = random_gframe(rng, 3, [2, 2])
    # the second control is not self-adjoint, so a slip between C and C*
    # breaks the identity
    skew = ControlOperator(3 * np.eye(3) + complex_gaussian(rng, 3, 3))
    assert not skew.is_self_adjoint
    for control in (random_positive(rng, 3), skew):
        vframe, holds = induced_controlled_frame(frame, control)
        assert holds
        s_c = controlled_frame_operator(frame, control)
        for _ in range(100):
            f = rng.normal(size=3) + 1j * rng.normal(size=3)
            acc = np.zeros(3, dtype=np.complex128)
            for psi in vframe.vectors:
                acc += np.vdot(control.matrix @ psi, f) * psi
            assert np.linalg.norm(acc - s_c @ f) <= 1e-10 * (1 + np.linalg.norm(f))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_induced_controlled_identity_always_certifies(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng)
    frame = random_gframe(rng, dim, partition)
    control = random_positive(rng, dim)
    _, holds = induced_controlled_frame(frame, control)
    assert holds
