"""Weighted families: scaled bounds, duals, and the six-way equivalence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_value_object, count_factorizations, identity_gframe, violates
from gframes import (
    ControlOperator,
    FrameClass,
    GFrame,
    WeightedVectorFrame,
    canonical_dual,
    frame_bounds,
    frame_operator,
    induced_frame,
    induced_weighted_frame,
    scale_blocks,
    verify_duality,
    weight_from_control,
    weighted_bounds,
    weighted_dual,
    weighted_equivalence_suite,
    weighted_multiplier_as_frame_operator,
    weighted_vector_frame_bounds,
)
from gframes.errors import NonFinite, ShapeMismatch
from gframes.sampling import (
    eigenblock_control_instance,
    random_deficient,
    random_gframe,
)
from gframes.selftest import random_partition


def random_positive_weights(rng, n):
    return rng.uniform(0.3, 2.5, n)


# -- weighted bounds -------------------------------------------------------------


def test_weighted_bounds_identity_frame():
    bounds = weighted_bounds(identity_gframe(2), [2.0, 3.0])
    assert bounds.lower == pytest.approx(4.0)
    assert bounds.upper == pytest.approx(9.0)
    assert bounds.classification is FrameClass.G_FRAME


def test_unit_weights_recover_frame_bounds():
    rng = np.random.default_rng(71)
    frame = random_gframe(rng, 3, [2, 2])
    plain = frame_bounds(frame)
    weighted = weighted_bounds(frame, np.ones(2))
    assert weighted.lower == pytest.approx(plain.lower)
    assert weighted.upper == pytest.approx(plain.upper)


def test_weighted_bounds_use_weight_moduli():
    frame = identity_gframe(2)
    complex_w = weighted_bounds(frame, [2.0j, -3.0])
    real_w = weighted_bounds(frame, [2.0, 3.0])
    assert complex_w.lower == pytest.approx(real_w.lower)
    assert complex_w.upper == pytest.approx(real_w.upper)


def test_weighted_bounds_definitional_inequality():
    rng = np.random.default_rng(72)
    frame = random_gframe(rng, 4, [2, 1, 3])
    w = random_positive_weights(rng, 3)
    bounds = weighted_bounds(frame, w)
    for _ in range(500):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        total = sum(
            w_i**2 * np.linalg.norm(b @ f) ** 2
            for w_i, b in zip(w, frame.blocks)
        )
        n2 = np.linalg.norm(f) ** 2
        assert bounds.lower * n2 - 1e-9 <= total <= bounds.upper * n2 + 1e-9


def test_weighted_bounds_weight_count_mismatch():
    with pytest.raises(ShapeMismatch):
        weighted_bounds(identity_gframe(2), [1.0])


# -- induced weighted vector family ----------------------------------------------


def test_induced_weighted_frame_replicates_block_weights():
    rng = np.random.default_rng(73)
    frame = random_gframe(rng, 3, [2, 1])
    wv = induced_weighted_frame(frame, [5.0, 7.0])
    assert np.allclose(wv.weights, [5.0, 5.0, 7.0])


def test_induced_weighted_bounds_match_block_weighted_bounds():
    rng = np.random.default_rng(74)
    for _ in range(20):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        block_side = weighted_bounds(frame, w)
        vector_side = weighted_vector_frame_bounds(induced_weighted_frame(frame, w))
        assert vector_side.lower == pytest.approx(block_side.lower, abs=1e-12)
        assert vector_side.upper == pytest.approx(block_side.upper, abs=1e-12)


def test_weighted_vector_frame_value_semantics():
    frame = random_gframe(np.random.default_rng(76), 3, (2, 1))
    wv = induced_weighted_frame(frame, [5.0, 7.0])
    check_value_object(wv, induced_weighted_frame(frame, [5.0, 7.0]),
                       induced_weighted_frame(frame, [5.0, 7.0 + 1e-9]))
    assert wv != induced_weighted_frame(scale_blocks(frame, [1.0, 1.0 + 1e-9]), [5.0, 7.0])


def test_weighted_vector_frame_rejects_count_mismatch():
    base = induced_frame(identity_gframe(2))
    with pytest.raises(ShapeMismatch):
        WeightedVectorFrame(base=base, weights=np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weighted_vector_frame_rejects_non_finite_weights(bad):
    # a NaN or inf weight would otherwise reach eigvalsh as an untyped LinAlgError
    base = induced_frame(random_gframe(np.random.default_rng(77), 3, (2, 2)))
    with pytest.raises(NonFinite, match="non-finite"):
        WeightedVectorFrame(base, [bad, 1.0, 1.0, 1.0])


# -- weight extraction from a control operator ------------------------------------


def test_weight_from_control_identity_cases():
    frame = identity_gframe(2)
    w, is_mult = weight_from_control(frame, ControlOperator(np.diag([2.0, 3.0])))
    assert np.allclose(w.values, [2.0, 3.0])
    assert is_mult
    w, is_mult = weight_from_control(frame, ControlOperator(np.eye(2)))
    assert np.allclose(w.values, [1.0, 1.0])
    assert is_mult


def test_weight_from_control_recovers_planted_weights():
    rng = np.random.default_rng(75)
    for _ in range(15):
        frame, control, true_w = eigenblock_control_instance(rng, [2, 1, 2])
        w, is_mult = weight_from_control(frame, control)
        assert np.allclose(w.values, true_w, atol=1e-9)
        assert is_mult


def test_weight_from_control_on_a_square_frame_runs_no_svd(monkeypatch):
    # the eigenblock frame is square, so the dual that recovers C is one
    # inv of T*: nothing factors T
    rng = np.random.default_rng(76)
    frame, control, true_w = eigenblock_control_instance(rng, [2, 1, 2])
    calls = count_factorizations(monkeypatch)
    w, is_mult = weight_from_control(frame, control)
    assert is_mult and np.allclose(w.values, true_w, atol=1e-9)
    assert calls == {"eigvalsh": 1, "inv": 1}


def test_weight_from_control_rejects_non_scalar_action():
    frame = identity_gframe(2)
    dense = ControlOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with violates("C Lambda_0* = w_0 Lambda_0*"):
        weight_from_control(frame, dense)


def test_weight_from_control_rejects_non_positive_scalars():
    frame = identity_gframe(2)
    with violates("w_i > 0"):
        weight_from_control(frame, ControlOperator(np.diag([-1.0, 1.0])))


def test_weight_from_control_rejects_non_self_adjoint():
    frame = identity_gframe(2)
    with violates("C = C*"):
        weight_from_control(
            frame, ControlOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
        )


def test_weight_from_control_rejects_zero_block():
    frame = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])))
    with violates("||Lambda_1||_F^2 > 0"):
        weight_from_control(frame, ControlOperator(np.eye(2)))


def test_weight_from_control_rejects_block_too_large_to_square():
    frame, control, _ = eigenblock_control_instance(np.random.default_rng(3), (2, 1, 2))
    huge = scale_blocks(frame, [1e160] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="block 0 is too large"):
            weight_from_control(huge, control)


# -- weighted duals ---------------------------------------------------------------


def test_weighted_dual_identity_frame():
    dual = weighted_dual(identity_gframe(2), [2.0, 3.0])
    assert np.allclose(dual.blocks[0], [[0.5, 0.0]])
    assert np.allclose(dual.blocks[1], [[0.0, 1 / 3]])


def test_weighted_dual_of_unit_weights_is_canonical():
    rng = np.random.default_rng(76)
    frame = random_gframe(rng, 3, [2, 2])
    dual = weighted_dual(frame, np.ones(2))
    canonical = canonical_dual(frame)
    for d_blk, c_blk in zip(dual.blocks, canonical.blocks):
        assert np.allclose(d_blk, c_blk)


def test_weighted_dual_verifies_against_scaled_family():
    rng = np.random.default_rng(77)
    for _ in range(15):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        scaled = scale_blocks(frame, w)
        assert verify_duality(scaled, weighted_dual(frame, w))


def test_weighted_dual_allows_negative_weights():
    rng = np.random.default_rng(78)
    frame = random_gframe(rng, 3, [2, 2])
    w = np.array([-2.0, 0.5])
    scaled = scale_blocks(frame, w)
    assert verify_duality(scaled, weighted_dual(frame, w))


def test_scaled_family_bounds_inside_weighted_window():
    rng = np.random.default_rng(79)
    for _ in range(15):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        a_w, b_w = w.min(), w.max()
        plain = frame_bounds(frame)
        scaled = frame_bounds(scale_blocks(frame, w))
        assert scaled.lower >= a_w**2 * plain.lower - 1e-9
        assert scaled.upper <= b_w**2 * plain.upper + 1e-9


def test_weighted_dual_rejects_zero_and_complex_weights():
    frame = identity_gframe(2)
    with violates("min|w_i| >= smallest normal float"):
        weighted_dual(frame, [1.0, 0.0])
    with violates("min|w_i| >= smallest normal float"):  # subnormal: its reciprocal overflows
        weighted_dual(frame, [1e-320, 1.0])
    with violates("w_i real"):
        weighted_dual(frame, [1.0, 1.0j])


# -- the weight multiplier as a frame operator -------------------------------------


def test_weighted_multiplier_identity_frame():
    m_mat, checks = weighted_multiplier_as_frame_operator(
        identity_gframe(2), [2.0, 3.0]
    )
    assert np.allclose(m_mat, np.diag([2.0, 3.0]))
    assert checks.matches_scaled_frame_operator
    assert checks.self_adjoint and checks.invertible
    assert checks.lower_eigenvalue == pytest.approx(2.0)


def test_weighted_multiplier_matches_sqrt_scaled_operator():
    rng = np.random.default_rng(81)
    for _ in range(15):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        m_mat, checks = weighted_multiplier_as_frame_operator(frame, w)
        assert checks.matches_scaled_frame_operator
        assert checks.match_defect <= 1e-12 * (1 + np.linalg.norm(m_mat))
        assert checks.self_adjoint and checks.invertible
        scaled = frame_operator(scale_blocks(frame, np.sqrt(w)))
        assert np.linalg.norm(m_mat - scaled) <= 1e-12 * (1 + np.linalg.norm(m_mat))


def test_weighted_multiplier_singular_for_deficient_frame():
    rng = np.random.default_rng(82)
    frame = random_deficient(rng, 3, [1, 1])
    _, checks = weighted_multiplier_as_frame_operator(frame, np.ones(2))
    assert not checks.invertible
    assert checks.lower_eigenvalue <= 1e-10


def test_weighted_multiplier_rejects_bad_weights():
    frame = identity_gframe(2)
    with violates("w_i real and w_i > 0"):
        weighted_multiplier_as_frame_operator(frame, [1.0, -1.0])
    with violates("w_i real and w_i > 0"):
        weighted_multiplier_as_frame_operator(frame, [1.0, 1.0j])


# -- six-way equivalence -----------------------------------------------------------


def test_equivalence_suite_all_true_for_identity():
    verdict = weighted_equivalence_suite(
        identity_gframe(2), [2.0, 3.0], [1.0, 1.0]
    )
    assert all(verdict)
    assert verdict.unanimous


def test_equivalence_suite_all_false_for_deficient():
    frame = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])))
    verdict = weighted_equivalence_suite(frame, [1.0, 2.0], [0.5, 0.5])
    assert not any(verdict)
    assert verdict.unanimous


def test_equivalence_suite_linear_statement_uses_single_power():
    # statement (iii) is about sum w_i Lambda_i* Lambda_i, hence sqrt weights
    rng = np.random.default_rng(83)
    frame = random_gframe(rng, 3, [2, 2])
    w = np.array([2.0, 5.0])
    single_power = sum(
        w_i * b.conj().T @ b for w_i, b in zip(w, frame.blocks)
    )
    eigs = np.linalg.eigvalsh(single_power)
    reported = weighted_bounds(frame, np.sqrt(w))
    assert reported.lower == pytest.approx(eigs[0], abs=1e-10)
    assert reported.upper == pytest.approx(eigs[-1], abs=1e-10)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_equivalence_suite_is_unanimous(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng)
    if rng.random() < 0.5:
        frame = random_gframe(rng, dim, partition)
    else:
        frame = random_deficient(rng, dim, partition[: max(1, len(partition) - 1)])
    n = frame.n_blocks
    verdict = weighted_equivalence_suite(
        frame, rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)
    )
    assert verdict.unanimous


def test_equivalence_suite_scales_by_sqrt_weights_once(monkeypatch):
    # (iii) and (iv) read one spectrum of {sqrt(w_i) Lambda_i}
    rng = np.random.default_rng(89)
    frame = random_gframe(rng, 4, [2, 2, 1])
    calls = count_factorizations(monkeypatch)
    verdict = weighted_equivalence_suite(frame, [1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    assert all(verdict)
    assert calls == {"eigvalsh": 5}


def test_equivalence_suite_rejects_non_positive_weights():
    frame = identity_gframe(2)
    with violates("w_i real and w_i > 0"):
        weighted_equivalence_suite(frame, [1.0, -1.0], [1.0, 1.0])
    with violates("w_i real and w_i > 0"):
        weighted_equivalence_suite(frame, [1.0, 1.0], [0.0, 1.0])
