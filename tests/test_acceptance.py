"""Acceptance gate: one pass/fail verdict per shipped guarantee.

Each test exercises one headline property of the toolkit at full trial
counts and records a verdict line that the terminal summary reprints.
Keep these independent: a failure here means the library broke a
documented contract, not that a unit test got unlucky.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import random_partition, record_verdict, tail_failures
from gframes import (
    ControlOperator,
    GFrame,
    canonical_dual,
    classify,
    coisometry_image,
    controlled_bound_arithmetic,
    controlled_bounds,
    controlled_equivalence,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
    duality_defect,
    frame_bounds,
    frame_operator,
    gframe_from_vector_frame,
    induced_frame,
    induced_weighted_frame,
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
    spectral_range,
    unitary_pair_from_contraction,
    unitary_triple_from_small_norm,
    vector_frame_operator,
    verify_commutation,
    weight_from_control,
    weighted_bounds,
    weighted_dual,
    weighted_equivalence_suite,
    weighted_multiplier_as_frame_operator,
    weighted_vector_frame_bounds,
)
from gframes.decompositions import ComponentKind
from gframes.io import (
    generate,
    instance_digest,
    parse_instance,
    serialize_instance,
)
from gframes.kernel import frobenius_norm, operator_norm
from gframes.sampling import (
    bessel_perturb_instance,
    bijection_instance,
    canonical_dual_instance,
    dual_mu_perturb_instance,
    dual_perturb_instance,
    eigenblock_control_instance,
    mu_perturb_instance,
    random_coisometry,
    random_contraction,
    random_control_commuting,
    random_deficient,
    random_g_onb,
    random_g_riesz,
    random_gframe,
    random_parseval,
    random_positive_weights,
    random_unitary,
)


def random_family(rng):
    """A g-frame drawn from all four populations, for predicate variety."""
    dim, partition = random_partition(rng)
    pick = rng.integers(0, 4)
    if pick == 0:
        sq_dim, sq_part = random_partition(rng, square=True)
        return random_g_onb(rng, sq_dim, sq_part)
    if pick == 1:
        return random_parseval(rng, dim, partition)
    if pick == 2:
        return random_deficient(rng, dim, partition)
    return random_gframe(rng, dim, partition)


def test_criterion_1_bridge_to_induced_vector_frame():
    rng = np.random.default_rng(101)
    failures = []
    predicates = ("is_g_bessel", "is_g_frame", "is_g_complete",
                  "is_g_riesz", "is_g_onb")
    for trial in range(1000):
        frame = random_family(rng)
        vframe = induced_frame(frame)
        gap = np.max(np.abs(frame_operator(frame) - vector_frame_operator(vframe)))
        if gap > 1e-12:
            failures.append(f"trial {trial}: operator gap {gap:.3e}")
        regrouped = gframe_from_vector_frame(vframe, [1] * len(vframe))
        ours = classify(frame)
        theirs = classify(regrouped)
        for name in predicates:
            if getattr(ours, name) != getattr(theirs, name):
                failures.append(f"trial {trial}: {name} disagrees")
    ok = record_verdict(
        not failures, 1,
        "frame operator matches the induced vector frame within 1e-12 and "
        "all five classification predicates transfer (1000 trials)",
    )
    assert ok, failures[:5]


def test_criterion_2_canonical_dual_bounds_are_reciprocal():
    rng = np.random.default_rng(102)
    failures = []
    for trial in range(500):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        bounds = frame_bounds(frame)
        dual_bounds = frame_bounds(canonical_dual(frame))
        want_lower = 1.0 / bounds.upper
        want_upper = 1.0 / bounds.lower
        if abs(dual_bounds.lower - want_lower) > 1e-9 * want_lower:
            failures.append(f"trial {trial}: lower {dual_bounds.lower} vs {want_lower}")
        if abs(dual_bounds.upper - want_upper) > 1e-9 * want_upper:
            failures.append(f"trial {trial}: upper {dual_bounds.upper} vs {want_upper}")
    ok = record_verdict(
        not failures, 2,
        "canonical dual bounds equal (1/B, 1/A) within 1e-9 relative "
        "(500 trials)",
    )
    assert ok, failures[:5]


def _component_failures(dec, frame, tag):
    problems = []
    target = frame.analysis_matrix()
    recon = sum(
        a * comp.analysis_matrix() for a, comp in zip(dec.scalars, dec.components)
    )
    residual = frobenius_norm(recon - target)
    if residual > 1e-9 * (1.0 + frobenius_norm(target)):
        problems.append(f"{tag}: residual {residual:.3e}")
    if dec.reconstruction_residual > 1e-9 * (1.0 + frobenius_norm(target)):
        problems.append(f"{tag}: reported residual {dec.reconstruction_residual:.3e}")
    for j, (kind, comp) in enumerate(zip(dec.component_kinds, dec.components)):
        report = classify(comp)
        if kind is ComponentKind.G_ONB:
            good = report.is_g_onb
        elif kind is ComponentKind.G_RIESZ:
            good = report.is_g_riesz
        else:
            b = report.bounds
            good = abs(b.lower - 1.0) <= 1e-8 and abs(b.upper - 1.0) <= 1e-8
        if not good:
            problems.append(f"{tag}: component {j} fails {kind.value}")
    return problems


def test_criterion_3_decompositions_reconstruct_and_certify():
    rng = np.random.default_rng(103)
    failures = []

    for trial in range(500):
        dim, partition = random_partition(rng, square=True)
        riesz = random_g_riesz(rng, dim, partition)
        failures += _component_failures(
            decompose_three_gonb(riesz), riesz, f"three-onb {trial}"
        )
        failures += _component_failures(
            decompose_two_gonb_combo(riesz), riesz, f"two-onb {trial}"
        )
        failures += _component_failures(
            decompose_gonb_plus_griesz(riesz), riesz, f"onb-plus-riesz {trial}"
        )

        any_dim, any_partition = random_partition(rng)
        frame = random_gframe(rng, any_dim, any_partition)
        failures += _component_failures(
            decompose_two_parseval(frame), frame, f"two-parseval {trial}"
        )

        onb_dim, onb_partition = random_partition(rng, square=True)
        onb = random_g_onb(rng, onb_dim, onb_partition)
        k = random_coisometry(rng, int(rng.integers(1, onb_dim + 1)), onb_dim)
        image = coisometry_image(onb, k)
        s_img = frame_operator(image)
        eye = np.eye(image.h_dim)
        t_norm = frobenius_norm(image.analysis_matrix())
        if frobenius_norm(s_img - eye) > 1e-9 * (1.0 + t_norm):
            failures.append(f"coisometry {trial}: image operator off identity")
        b = frame_bounds(image)
        if abs(b.lower - 1.0) > 1e-8 or abs(b.upper - 1.0) > 1e-8:
            failures.append(f"coisometry {trial}: image not Parseval")

    for trial in range(200):
        dim, partition = random_partition(rng, square=True)
        first = random_g_onb(rng, dim, partition)
        second = random_g_onb(rng, dim, partition)
        r_small = rng.uniform(0.1, 0.9)
        r_big = rng.uniform(r_small + 0.05, 2.0)
        a = r_small * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = r_big * np.exp(1j * rng.uniform(0, 2 * np.pi))
        combo = GFrame(
            dim,
            tuple(a * u + b * g for u, g in zip(first.blocks, second.blocks)),
        )
        if not classify(combo).is_g_riesz:
            failures.append(f"combo {trial}: |a|={r_small:.3f} |b|={r_big:.3f}")

    ok = record_verdict(
        not failures, 3,
        "all five decompositions reconstruct within 1e-9 with certified "
        "components (500 each); scaled two-ONB combinations with "
        "0<|a|<|b| are g-Riesz (200 pairs)",
    )
    assert ok, failures[:5]


def test_criterion_4_multiplier_flattening_and_norm_bound():
    rng = np.random.default_rng(104)
    failures = []
    for trial in range(1000):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        companion = random_gframe(rng, dim, partition)
        n = len(partition)
        weights = rng.normal(size=n) + 1j * rng.normal(size=n)
        m_mat = multiplier(weights, frame, companion)

        psi = induced_frame(frame)
        phi = induced_frame(companion)
        flat = np.array([weights[i] for i, _ in psi.indices])
        vec_mult = np.einsum("j,jp,jq->pq", flat, psi.vectors, phi.vectors.conj())
        gap = frobenius_norm(m_mat - vec_mult)
        if gap > 1e-12 * (1.0 + frobenius_norm(m_mat)):
            failures.append(f"trial {trial}: flattening gap {gap:.3e}")

        bound = multiplier_norm_bound(weights, frame, companion)
        norm = operator_norm(m_mat)
        if norm > bound + 1e-9:
            failures.append(f"trial {trial}: norm {norm} above bound {bound}")
    ok = record_verdict(
        not failures, 4,
        "block multiplier equals the flattened vector multiplier within "
        "1e-12 and respects sqrt(B B')*max|m| (1000 trials)",
    )
    assert ok, failures[:5]


def _certified_failures(weights, frame, companion, m_inv, cert, tag):
    problems = []
    m_mat = multiplier(weights, frame, companion)
    if cert.residual > 1e-8:
        problems.append(f"{tag}: residual {cert.residual:.3e}")
    direct = np.linalg.inv(m_mat)
    true_norm = operator_norm(direct)
    if not (cert.inverse_norm_lower - 1e-9 <= true_norm
            <= cert.inverse_norm_upper + 1e-9):
        problems.append(
            f"{tag}: bracket [{cert.inverse_norm_lower:.6g}, "
            f"{cert.inverse_norm_upper:.6g}] misses {true_norm:.6g}"
        )
    gap = np.linalg.norm(m_inv - direct)
    if gap > 1e-6 * (1.0 + np.linalg.norm(direct)):
        problems.append(f"{tag}: inverse gap {gap:.3e}")
    return problems, direct


def test_criterion_5_certified_inversions():
    rng = np.random.default_rng(105)
    failures = []
    tol = 1e-9

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame, g = bijection_instance(
            rng, dim, partition, negative=trial % 5 == 0
        )
        companion = GFrame(dim, tuple(b @ g for b in frame.blocks))
        m_inv, cert = invert_via_bijection(weights, frame, g)
        probs, _ = _certified_failures(
            weights, frame, companion, m_inv, cert, f"bijection {trial}"
        )
        failures += probs

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame, dual = dual_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_dual_neumann(weights, frame, dual, tol=tol)
        probs, direct = _certified_failures(
            weights, frame, dual, m_inv, cert, f"dual-neumann {trial}"
        )
        failures += probs
        n_mat = multiplier(1.0 - np.asarray(weights), frame, dual)
        failures += tail_failures(
            direct, np.eye(dim), n_mat, cert.hypothesis_values["contraction"],
            cert.series_terms_for_tol, f"dual-neumann {trial}",
        )

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame = canonical_dual_instance(rng, dim, partition)
        m_inv, cert = invert_canonical_dual(weights, frame, tol=tol)
        dual = canonical_dual(frame)
        probs, direct = _certified_failures(
            weights, frame, dual, m_inv, cert, f"canonical {trial}"
        )
        failures += probs
        n_mat = multiplier(1.0 - np.asarray(weights), frame, dual)
        failures += tail_failures(
            direct, np.eye(dim), n_mat, cert.hypothesis_values["contraction"],
            cert.series_terms_for_tol, f"canonical {trial}",
        )

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame, companion = bessel_perturb_instance(
            rng, dim, partition, negative=trial % 5 == 0
        )
        m_inv, cert = invert_bessel_perturb(weights, frame, companion, tol=tol)
        probs, direct = _certified_failures(
            weights, frame, companion, m_inv, cert, f"bessel-perturb {trial}"
        )
        failures += probs
        # M^-1 = sign * sum_k [S_w^-1 (S_w - sign M)]^k S_w^-1
        sign = np.sign(weights[0])
        s_w = frame_operator(scale_blocks(frame, np.sqrt(np.abs(weights))))
        s_w_inv = np.linalg.inv(s_w)
        m_mat = multiplier(weights, frame, companion)
        failures += tail_failures(
            direct, sign * s_w_inv, s_w_inv @ (s_w - sign * m_mat),
            cert.hypothesis_values["contraction"], cert.series_terms_for_tol,
            f"bessel-perturb {trial}",
        )

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame, companion = mu_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_mu_perturb(weights, frame, companion, tol=tol)
        probs, direct = _certified_failures(
            weights, frame, companion, m_inv, cert, f"mu-perturb {trial}"
        )
        failures += probs
        # M^-1 = sum_k [S^-1 (S - M)]^k S^-1
        s = frame_operator(frame)
        s_inv = np.linalg.inv(s)
        m_mat = multiplier(weights, frame, companion)
        failures += tail_failures(
            direct, s_inv, s_inv @ (s - m_mat),
            cert.hypothesis_values["contraction"], cert.series_terms_for_tol,
            f"mu-perturb {trial}",
        )

    for trial in range(200):
        dim, partition = random_partition(rng)
        weights, frame, dual, companion = dual_mu_perturb_instance(
            rng, dim, partition
        )
        m_inv, cert = invert_dual_mu_perturb(
            weights, frame, dual, companion, tol=tol
        )
        probs, direct = _certified_failures(
            weights, frame, companion, m_inv, cert, f"dual-mu {trial}"
        )
        failures += probs
        n_mat = np.eye(dim) - multiplier(weights, frame, companion)
        failures += tail_failures(
            direct, np.eye(dim), n_mat, cert.hypothesis_values["contraction"],
            cert.series_terms_for_tol, f"dual-mu {trial}",
        )

    ok = record_verdict(
        not failures, 5,
        "all six inversion routes: residual <= 1e-8, bracket contains the "
        "direct inverse norm, every series route's partial sums beat the "
        "geometric tail at every K (200 instances each)",
    )
    assert ok, failures[:5]


def test_criterion_6_invertible_multiplier_lower_bound():
    rng = np.random.default_rng(106)
    failures = []
    for trial in range(500):
        dim, partition = random_partition(rng)
        if trial % 2 == 0:
            weights, frame, dual = dual_perturb_instance(rng, dim, partition)
            companion = dual
        else:
            weights, frame, g = bijection_instance(rng, dim, partition)
            companion = GFrame(dim, tuple(b @ g for b in frame.blocks))
        m_mat = multiplier(weights, frame, companion)
        inv_norm = operator_norm(np.linalg.inv(m_mat))
        b_comp = frame_bounds(companion).upper
        claimed = 1.0 / (b_comp * inv_norm**2)
        actual = weighted_bounds(frame, np.abs(weights)).lower
        if claimed > actual + 1e-9:
            failures.append(f"trial {trial}: claimed {claimed} > actual {actual}")
        via_library = lower_bound_from_invertible(m_mat, b_comp, side="m_lambda")
        if abs(via_library - claimed) > 1e-9 * (1.0 + claimed):
            failures.append(f"trial {trial}: library bound {via_library} != {claimed}")
    ok = record_verdict(
        not failures, 6,
        "1/(B'*||M^-1||^2) lower-bounds the weighted family's optimal bound "
        "on invertible multipliers (500 trials)",
    )
    assert ok, failures[:5]


def test_criterion_7_controlled_frame_criteria():
    rng = np.random.default_rng(107)
    failures = []

    # certified commuting instances: defect, then interval containment
    for trial in range(200):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        control = random_control_commuting(rng, frame)
        cb = controlled_bounds(frame, control)
        if not cb.is_controlled_frame:
            failures.append(f"commuting {trial}: failed to certify")
            continue
        defect = verify_commutation(frame, control).defect
        if defect > 1e-8:
            failures.append(f"commuting {trial}: defect {defect:.3e}")
        fb = frame_bounds(frame)
        c_l, c_u = control.bounds
        derived = controlled_bound_arithmetic(
            cb.lower, cb.upper, fb.lower, fb.upper, c_l, c_u
        )
        pairs = [
            (derived.frame_operator_bounds, (fb.lower, fb.upper)),
            (derived.control_bounds, (c_l, c_u)),
            (derived.controlled_bounds, (cb.lower, cb.upper)),
        ]
        for (lo, hi), (true_lo, true_hi) in pairs:
            if true_lo < lo - 1e-9 or true_hi > hi + 1e-9:
                failures.append(f"commuting {trial}: interval containment broken")

    # biconditional agreement across engineered populations
    swap_frame = GFrame(
        2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.0)]]))
    )
    swap = ControlOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    seen = set()
    for trial in range(500):
        pick = trial % 5
        if pick == 0:
            frame, control = swap_frame, swap
        elif pick == 1:
            dim, partition = random_partition(rng)
            frame = random_gframe(rng, dim, partition)
            u = random_unitary(rng, dim)
            control = ControlOperator(
                (u * rng.uniform(0.5, 3.0, dim)) @ u.conj().T
            )
        elif pick == 2:
            dim, partition = random_partition(rng)
            frame = random_deficient(rng, dim, partition)
            control = ControlOperator(np.eye(dim))
        elif pick == 3:
            dim, partition = random_partition(rng)
            frame = random_gframe(rng, dim, partition)
            signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
            control = ControlOperator(np.diag(signs * rng.uniform(0.5, 2.0, dim)))
        else:
            dim, partition = random_partition(rng)
            frame = random_gframe(rng, dim, partition)
            control = random_control_commuting(rng, frame)
        lhs, rhs = controlled_equivalence(frame, control)
        seen.add((lhs, rhs))
        if lhs != rhs:
            failures.append(f"equiv {trial}: lhs {lhs} != rhs {rhs}")
    if (True, True) not in seen or (False, False) not in seen:
        failures.append(f"equivalence populations degenerate: {seen}")

    ok = record_verdict(
        not failures, 7,
        "commutation defect <= 1e-8 on certified controlled instances, "
        "equivalence verdicts agree on 500 mixed instances, derived bound "
        "intervals contain the true spectra",
    )
    assert ok, failures[:5]


def test_criterion_8_weighted_family_suite():
    rng = np.random.default_rng(108)
    failures = []

    for trial in range(300):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        block_side = weighted_bounds(frame, w)
        vector_side = weighted_vector_frame_bounds(induced_weighted_frame(frame, w))
        if (abs(block_side.lower - vector_side.lower) > 1e-12
                or abs(block_side.upper - vector_side.upper) > 1e-12):
            failures.append(f"bounds {trial}: block and vector sides differ")

    for trial in range(200):
        sizes = [int(p) for p in random_partition(rng, square=True)[1]]
        frame, control, planted = eigenblock_control_instance(rng, sizes)
        extracted, is_mult = weight_from_control(frame, control)
        if np.max(np.abs(extracted.values - planted)) > 1e-9:
            failures.append(f"extract {trial}: weights off")
        recovered = multiplier(extracted, frame, canonical_dual(frame))
        gap = frobenius_norm(control.matrix - recovered)
        if gap > 1e-9 * (1.0 + frobenius_norm(control.matrix)):
            failures.append(f"extract {trial}: control mismatch {gap:.3e}")
        if not is_mult:
            failures.append(f"extract {trial}: multiplier identity not certified")

    for trial in range(300):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        scaled = scale_blocks(frame, w)
        dual = weighted_dual(frame, w)
        defect = duality_defect(scaled, dual)
        if defect > 1e-10:
            failures.append(f"dual {trial}: defect {defect:.3e}")
        plain = frame_bounds(frame)
        got = frame_bounds(scaled)
        a_w, b_w = w.min(), w.max()
        if (got.lower < a_w**2 * plain.lower - 1e-9
                or got.upper > b_w**2 * plain.upper + 1e-9):
            failures.append(f"dual {trial}: scaled bounds escape the window")

    for trial in range(300):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        w = random_positive_weights(rng, len(partition))
        _, checks = weighted_multiplier_as_frame_operator(frame, w)
        if not (checks.matches_scaled_frame_operator and checks.self_adjoint
                and checks.lower_eigenvalue > 0.0 and checks.invertible):
            failures.append(f"operator {trial}: {checks}")

    for trial in range(500):
        dim, partition = random_partition(rng)
        if trial % 3 == 0:
            frame = random_deficient(rng, dim, partition)
        else:
            frame = random_gframe(rng, dim, partition)
        n = frame.n_blocks
        verdict = weighted_equivalence_suite(
            frame,
            random_positive_weights(rng, n),
            random_positive_weights(rng, n),
        )
        if not verdict.unanimous:
            failures.append(f"equivalence {trial}: {verdict}")

    ok = record_verdict(
        not failures, 8,
        "weighted bounds match the induced vector family within 1e-12, "
        "planted control weights are recovered within 1e-9, weighted duals "
        "verify at 1e-10 inside [a^2 A, b^2 B], the weight multiplier is a "
        "frame operator, and all six equivalence verdicts are unanimous "
        "(500 instances)",
    )
    assert ok, failures[:5]


def test_criterion_9_unitary_averaging_and_spectral_range():
    rng = np.random.default_rng(109)
    failures = []

    def unitarity(u):
        return frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))

    for trial in range(1000):
        dim = int(rng.integers(1, 7))
        a = random_contraction(rng, dim)
        u1, u2 = unitary_pair_from_contraction(a)
        if max(unitarity(u1), unitarity(u2)) > 1e-9:
            failures.append(f"pair {trial}: unitarity defect")
        if frobenius_norm((u1 + u2) / 2.0 - a) > 1e-9:
            failures.append(f"pair {trial}: reconstruction")

        small = a / 3.0
        v1, v2, v3 = unitary_triple_from_small_norm(small)
        if max(unitarity(v1), unitarity(v2), unitarity(v3)) > 1e-9:
            failures.append(f"triple {trial}: unitarity defect")
        if frobenius_norm((v1 + v2 + v3) / 3.0 - small) > 1e-9:
            failures.append(f"triple {trial}: reconstruction")

    for trial in range(150):
        dim = int(rng.integers(2, 7))
        base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (base + base.conj().T) / 2.0
        lo, hi = spectral_range(h)
        pool = rng.standard_normal((2000, dim)) + 1j * rng.standard_normal((2000, dim))
        # include eigenvector witnesses so the sampled extrema are attained
        pool = np.vstack([pool, np.linalg.eig(h)[1].T])
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        quotients = np.einsum("ij,ij->i", pool.conj(), pool @ h.T).real
        scale = max(1.0, abs(lo), abs(hi))
        if abs(quotients.min() - lo) > 1e-6 * scale:
            failures.append(f"range {trial}: min {quotients.min()} vs {lo}")
        if abs(quotients.max() - hi) > 1e-6 * scale:
            failures.append(f"range {trial}: max {quotients.max()} vs {hi}")
        if quotients.min() < lo - 1e-9 or quotients.max() > hi + 1e-9:
            failures.append(f"range {trial}: quotient escaped the range")

    ok = record_verdict(
        not failures, 9,
        "unitary pair/triple averages reconstruct with defects <= 1e-9 "
        "(1000 contractions); spectral ranges match Rayleigh extrema "
        "within 1e-6",
    )
    assert ok, failures[:5]


def test_criterion_10_cli_contract(tmp_path):
    failures = []

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gframes.cli", "selftest"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        failures.append(f"selftest exit {proc.returncode}: {proc.stderr[-200:]}")
    if elapsed > 60.0:
        failures.append(f"selftest took {elapsed:.1f}s")

    kinds = ("random_gframe", "g_riesz", "g_onb", "parseval",
             "controlled_commuting", "weighted")
    square = {"g_riesz", "g_onb"}
    count = 0
    seed = 0
    while count < 100:
        kind = kinds[count % len(kinds)]
        dim = 2 + count % 5
        partition = [dim] if kind in square else [dim, 2]
        inst = generate(kind, dim, partition, seed=seed)
        seed += 1
        again = parse_instance(serialize_instance(inst))
        if instance_digest(again) != instance_digest(inst):
            failures.append(f"round-trip {count}: digest changed")
        if serialize_instance(again) != serialize_instance(inst):
            failures.append(f"round-trip {count}: bytes changed")
        count += 1

    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema_version": 1, "h_dim": 2, '
        '"blocks": [{"dim": 1, "matrix": [[[1, 0], [0, 0]]]}, '
        '{"dim": 1, "matrix": [[[0, 0], [1, 0]]]}], '
        '"weights": [[9, 0], [1, 0]]}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gframes.cli", "invert", "canonical",
         "--in", str(bad)],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 2:
        failures.append(f"violation exit {proc.returncode}, wanted 2")
    if "lambda < sqrt(A_Lambda/B_Lambda)" not in proc.stderr:
        failures.append(f"violated inequality not named: {proc.stderr[-200:]}")

    ok = record_verdict(
        not failures, 10,
        "selftest exits 0 in under 60s, serialization round-trips 100 "
        "instances byte-identically, hypothesis violations exit 2 naming "
        "the inequality",
    )
    assert ok, failures[:5]
