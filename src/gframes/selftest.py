"""The property corpus: one randomized check per guarantee the package makes.

Each entry of `CHECKS` is `(name, check, trials)`. `check(rng, trials)`
draws `trials` random instances at dimensions up to 6 and raises
`CheckFailed` naming the first property that does not hold. The
acceptance gate (`tests/test_acceptance.py`) runs every entry at its full
`trials`; `run_selftest`, behind the CLI `selftest` command, runs each at
`max(1, trials // SELFTEST_DIVISOR)` with fixed seeds.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from . import sampling
from .controlled import (
    ControlOperator,
    controlled_bound_arithmetic,
    controlled_bounds,
    controlled_equivalence,
    induced_controlled_frame,
    induced_weighted_frame,
    verify_commutation,
    weight_from_control,
    weighted_bounds,
    weighted_dual,
    weighted_equivalence_suite,
    weighted_multiplier_as_frame_operator,
    weighted_vector_frame_bounds,
)
from .core import (
    GFrame,
    canonical_dual,
    classify,
    duality_defect,
    frame_bounds,
    frame_operator,
    gframe_from_vector_frame,
    induced_frame,
    scale_blocks,
    vector_frame_operator,
    verify_duality,
)
from .decompositions import (
    ComponentKind,
    coisometry_image,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
)
from .io import GENERATE_KINDS, generate, instance_digest, parse_instance, serialize_instance
from .kernel import (
    frobenius_norm,
    operator_norm,
    unitary_pair_from_contraction,
    unitary_triple_from_small_norm,
)
from .multipliers import (
    invert_bessel_perturb,
    invert_canonical_dual,
    invert_dual_mu_perturb,
    invert_dual_neumann,
    invert_mu_perturb,
    invert_via_bijection,
    lower_bound_from_invertible,
    multiplier,
    multiplier_norm_bound,
)
from .tolerances import TAU_DUAL

# run_selftest runs each check at 1/50 of its gate trials; measured with one
# BLAS thread, that selftest takes about 0.6x the time of the fixed 20-trial
# corpus it replaced, which leaves room for run-to-run spread
SELFTEST_DIVISOR = 50

# series tolerance of the inversion checks, plus the roundoff of numpy's inverse
# and of the summed series allowed per unit of ||M^-1||_2 (dimensions <= 6)
INVERSION_TOL = 1e-9
ROUNDOFF = 1e-12


class CheckFailed(Exception):
    """A property of the corpus did not hold."""


def _check(condition, message: str) -> None:
    # an explicit raise, unlike a bare assert, survives python -O
    if not condition:
        raise CheckFailed(message)


def random_partition(rng, max_dim=6, square=False):
    """(dim, partition) with optional Sum(d_i) = dim."""
    dim = int(rng.integers(2, max_dim + 1))
    total = dim if square else int(rng.integers(dim, dim + 4))
    sizes = []
    remaining = total
    while remaining > 0:
        p = int(rng.integers(1, remaining + 1))
        sizes.append(p)
        remaining -= p
    return dim, tuple(sizes)


def tail_failures(direct, base, ratio, contraction, n_terms, tag):
    """K-term partial sums of sum_k ratio^k base against ||base|| q^K/(1-q)."""
    problems = []
    base_norm = operator_norm(base)
    partial = base
    term = base
    for k_terms in range(1, n_terms + 1):
        predicted = base_norm * contraction**k_terms / (1.0 - contraction)
        measured = operator_norm(direct - partial)
        if measured > predicted + 1e-12:
            problems.append(
                f"{tag}: K={k_terms} measured {measured:.3e} > tail {predicted:.3e}"
            )
            break
        term = ratio @ term
        partial = partial + term
    return problems


def _isometry_defect(u):
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[1]))


def _random_family(rng):
    """A g-ONB, Parseval, rank-deficient or generic family, for predicate variety."""
    pick = int(rng.integers(0, 4))
    dim, partition = random_partition(rng, square=pick == 0)
    make = (sampling.random_g_onb, sampling.random_parseval,
            sampling.random_deficient, sampling.random_gframe)[pick]
    return make(rng, dim, partition)


def check_kernel_unitary_averages(rng, trials):
    for _ in range(trials):
        a = sampling.random_contraction(rng, int(rng.integers(1, 7)))
        pair = unitary_pair_from_contraction(a)
        _check(max(map(_isometry_defect, pair)) <= 1e-10, "pair unitarity")
        _check(frobenius_norm(sum(pair) / 2 - a) <= 1e-9, "pair average")
        small = a / 3
        triple = unitary_triple_from_small_norm(small)
        _check(max(map(_isometry_defect, triple)) <= 1e-10, "triple unitarity")
        _check(frobenius_norm(sum(triple) / 3 - small) <= 1e-9, "triple average")


def check_core_bridge(rng, trials):
    for _ in range(trials):
        frame = _random_family(rng)
        vframe = induced_frame(frame)
        _check(np.max(np.abs(frame_operator(frame) - vector_frame_operator(vframe)))
               <= 1e-12, "frame operator matches the induced vector frame")
        rep = classify(frame)
        flat = classify(gframe_from_vector_frame(vframe, [1] * len(vframe)))
        for name in ("is_g_bessel", "is_g_frame", "is_g_complete", "is_g_riesz", "is_g_onb"):
            _check(getattr(rep, name) == getattr(flat, name), f"{name} transfers")
        for r in (rep, flat):  # each verdict implies the next one up
            _check(r.is_g_frame >= r.is_tight >= r.is_parseval >= r.is_g_onb,
                   "g-ONB => Parseval => tight => g-frame")
        _check(abs(rep.bounds.lower - flat.bounds.lower)
               <= 1e-12 * (1 + rep.bounds.upper), "lower bound transfers")
        regrouped = gframe_from_vector_frame(vframe, frame.partition)
        _check(np.array_equal(regrouped.analysis_matrix(), frame.analysis_matrix()),
               "regrouping restores blocks")


def _check_reciprocal_bounds(frame, dual, rel, tag):
    bounds, dual_bounds = frame_bounds(frame), frame_bounds(dual)
    _check(abs(dual_bounds.lower - 1 / bounds.upper) <= rel / bounds.upper,
           f"{tag}dual lower bound 1/B")
    _check(abs(dual_bounds.upper - 1 / bounds.lower) <= rel / bounds.lower,
           f"{tag}dual upper bound 1/A")


def check_core_dual(rng, trials):
    for trial in range(trials):
        frame = sampling.random_gframe(rng, *random_partition(rng))
        dual = canonical_dual(frame)
        _check_reciprocal_bounds(frame, dual, 1e-9, "")
        _check(verify_duality(frame, dual), "canonical duality")
        # ||T|| = 1 and k(S) up to 1e9 (d = 8), tall and square: a dual
        # formed through S loses eps k(S) and fails its own duality check.
        # The bounds carry about eps k(S) from the eigenvalues of S on
        # either side.
        sv = np.geomspace(1.0, (1e6, 1e8, 1e9)[trial % 3] ** -0.5, 8)
        for partition in ((2, 3, 2, 3), (2, 3, 3)):
            frame = sampling.random_gframe(rng, 8, partition, sv=sv)
            dual = canonical_dual(frame)
            _check(verify_duality(frame, dual), "ill-conditioned canonical duality")
            # NotDual if P3.4 rejects the dual
            invert_dual_neumann(np.ones(len(partition)), frame, dual)
            _check_reciprocal_bounds(frame, dual, 1e-6, "ill-conditioned ")


def _check_decomposition(dec, frame, tag):
    target = frame.analysis_matrix()
    limit = 1e-9 * (1 + frobenius_norm(target))
    recon = sum(a * c.analysis_matrix() for a, c in zip(dec.scalars, dec.components))
    _check(frobenius_norm(recon - target) <= limit, f"{tag} reconstruction")
    _check(dec.reconstruction_residual <= limit, f"{tag} reported residual")
    for kind, component in zip(dec.component_kinds, dec.components):
        report = classify(component)
        if kind is ComponentKind.G_ONB:
            good = report.is_g_onb
        elif kind is ComponentKind.G_RIESZ:
            good = report.is_g_riesz
        else:
            good = max(abs(report.bounds.lower - 1), abs(report.bounds.upper - 1)) <= 1e-8
        _check(good, f"{tag} component is {kind.value}")


def check_decompositions(rng, trials):
    for _ in range(trials):
        riesz = sampling.random_g_riesz(rng, *random_partition(rng, square=True))
        for op in (decompose_three_gonb, decompose_two_gonb_combo,
                   decompose_gonb_plus_griesz, decompose_two_parseval):
            _check_decomposition(op(riesz), riesz, op.__name__)
        # a one-row block keeps the frame strictly overcomplete (tall T)
        dim, partition = random_partition(rng)
        frame = sampling.random_gframe(rng, dim, (*partition, 1))
        _check_decomposition(decompose_two_parseval(frame), frame,
                             "overcomplete decompose_two_parseval")
        # singular values pinned at 1 and 1e-4 (k(S) = 1e8) on a strictly
        # overcomplete frame, factored directly and, with a 257-row block,
        # by CholeskyQR2: the Parseval components stay isometries to 1e-12,
        # where a one-pass SVD from S alone loses eps k(S)
        dim, partition = random_partition(rng)
        sv = rng.uniform(1e-4, 1.0, dim)
        sv[:2] = 1.0, 1e-4
        for rows in (1, 257):
            frame = sampling.random_gframe(rng, dim, (*partition, rows), sv=sv)
            for component in decompose_two_parseval(frame).components:
                _check(_isometry_defect(component.analysis_matrix()) <= 1e-12,
                       f"ill-conditioned Parseval component with a {rows}-row block is isometric")


def check_coisometry(rng, trials):
    for _ in range(trials):
        dim, partition = random_partition(rng, square=True)
        onb = sampling.random_g_onb(rng, dim, partition)
        k = sampling.random_coisometry(rng, int(rng.integers(1, dim + 1)), dim)
        image = coisometry_image(onb, k)
        _check(frobenius_norm(frame_operator(image) - np.eye(image.h_dim))
               <= 1e-9 * (1 + frobenius_norm(image.analysis_matrix())),
               "image frame operator is the identity")
        bounds = frame_bounds(image)
        _check(abs(bounds.lower - 1) <= 1e-9 and abs(bounds.upper - 1) <= 1e-9,
               "Parseval image bounds")


def check_onb_combinations(rng, trials):
    for _ in range(trials):
        dim, partition = random_partition(rng, square=True)
        first = sampling.random_g_onb(rng, dim, partition)
        second = sampling.random_g_onb(rng, dim, partition)
        r_small = rng.uniform(0.1, 0.9)
        r_big = rng.uniform(r_small + 0.05, 2.0)
        a = r_small * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = r_big * np.exp(1j * rng.uniform(0, 2 * np.pi))
        combo = GFrame.from_stacked(
            a * first.analysis_matrix() + b * second.analysis_matrix(), partition)
        _check(classify(combo).is_g_riesz,
               f"|a|={r_small:.3f} < |b|={r_big:.3f} combination is g-Riesz")


def check_multiplier(rng, trials):
    for _ in range(trials):
        dim, partition = random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        companion = sampling.random_gframe(rng, dim, partition)
        w = rng.standard_normal(len(partition)) + 1j * rng.standard_normal(len(partition))
        m = multiplier(w, frame, companion)
        psi, phi = induced_frame(frame), induced_frame(companion)
        flat = w[[i for i, _ in psi.indices]]
        vector_m = np.einsum("j,jp,jq->pq", flat, psi.vectors, phi.vectors.conj())
        _check(frobenius_norm(m - vector_m) <= 1e-12 * (1 + frobenius_norm(m)),
               "block multiplier equals the flattened vector multiplier")
        _check(operator_norm(m) <= multiplier_norm_bound(w, frame, companion) + 1e-9,
               "multiplier norm bound")


def inexact_dual(rng, frame, dual, defect):
    """`dual` moved along a random direction to duality defect `defect`."""
    push = sampling._complex_gaussian(rng, *frame.analysis_matrix().shape)
    push *= defect / frobenius_norm(push.conj().T @ frame.analysis_matrix())
    return GFrame.from_stacked(dual.analysis_matrix() + push, frame.partition)


def _check_inversion(m_mat, m_inv, cert, series=None):
    """Residual, norm bracket and inverse of a certified inversion; a series
    route passes (base, ratio), every partial sum must beat its tail, and
    the sum must meet INVERSION_TOL in the operator norm."""
    route = cert.proposition.value
    direct = np.linalg.inv(m_mat)
    inverse_norm = operator_norm(direct)
    _check(cert.residual <= 1e-8, f"{route} residual")
    _check(cert.inverse_norm_lower - 1e-9 <= inverse_norm
           <= cert.inverse_norm_upper + 1e-9, f"{route} bracket")
    _check(frobenius_norm(m_inv - direct) <= 1e-7, f"{route} inverse")
    if series is not None:
        error = operator_norm(m_inv - direct)
        _check(error <= INVERSION_TOL + ROUNDOFF * inverse_norm,
               f"{route}: ||X - M^-1||_2 = {error:.3e} misses tol {INVERSION_TOL:g}")
        problems = tail_failures(direct, *series, cert.hypothesis_values["contraction"],
                                 cert.series_terms_for_tol, route)
        _check(not problems, "; ".join(problems))


def check_inversions(rng, trials):
    tol = INVERSION_TOL
    for trial in range(trials):
        dim, partition = random_partition(rng)
        eye = np.eye(dim)

        w, frame, g = sampling.bijection_instance(rng, dim, partition,
                                                  negative=trial % 5 == 0)
        companion = GFrame.from_stacked(frame.analysis_matrix() @ g, partition)
        _check_inversion(multiplier(w, frame, companion), *invert_via_bijection(w, frame, g))

        # ||T|| = 1, k(S) = 1e6, 1e8, 1e9 (d = 8), tall and square in turn: X
        # matches +/-G^-1 R^-1 R^-* from an independent QR of the scaled T. At
        # k(M) near 1e9 no inverse meets the residual check, so none is made
        kappa = (1e6, 1e8, 1e9)[trial % 3]
        frame = sampling.random_gframe(rng, 8, ((2, 3, 2, 3), (2, 3, 3))[trial % 2],
                                       sv=np.geomspace(1.0, kappa**-0.5, 8))
        w = np.sign(w[0]) * sampling.random_positive_weights(rng, frame.n_blocks)
        g = sampling.random_unitary(rng, 8) * rng.uniform(0.5, 2.0, 8)
        scaled = scale_blocks(frame, np.sqrt(np.abs(w))).analysis_matrix()
        r_inv = np.linalg.inv(np.linalg.qr(scaled, mode="r"))
        expected = np.sign(w[0]) * (np.linalg.inv(g) @ (r_inv @ r_inv.conj().T))
        error = frobenius_norm(invert_via_bijection(w, frame, g)[0] - expected)
        error /= frobenius_norm(expected)
        _check(error <= 1e-10, f"P3.3 at k(S) = {kappa:g}: relative error {error:.3e}")

        # a dual that verify_duality accepts but that is not exact
        w, frame, dual = sampling.dual_perturb_instance(rng, dim, partition)
        dual = inexact_dual(rng, frame, dual, TAU_DUAL / 2)
        m_mat = multiplier(w, frame, dual)
        _check_inversion(m_mat, *invert_dual_neumann(w, frame, dual, tol=tol),
                         (eye, eye - m_mat))

        w, frame = sampling.canonical_dual_instance(rng, dim, partition)
        m_mat = multiplier(w, frame, canonical_dual(frame))
        _check_inversion(m_mat, *invert_canonical_dual(w, frame, tol=tol),
                         (eye, eye - m_mat))

        # M^-1 = sign * sum_k [S_w^-1 (S_w - sign M)]^k S_w^-1
        w, frame, companion = sampling.bessel_perturb_instance(rng, dim, partition,
                                                               negative=trial % 5 == 0)
        m_mat = multiplier(w, frame, companion)
        sign = np.sign(w[0])
        s_w = frame_operator(scale_blocks(frame, np.sqrt(np.abs(w))))
        s_w_inv = np.linalg.inv(s_w)
        _check_inversion(m_mat, *invert_bessel_perturb(w, frame, companion, tol=tol),
                         (sign * s_w_inv, s_w_inv @ (s_w - sign * m_mat)))

        # M^-1 = sum_k [S^-1 (S - M)]^k S^-1
        w, frame, companion = sampling.mu_perturb_instance(rng, dim, partition)
        m_mat = multiplier(w, frame, companion)
        s = frame_operator(frame)
        s_inv = np.linalg.inv(s)
        _check_inversion(m_mat, *invert_mu_perturb(w, frame, companion, tol=tol),
                         (s_inv, s_inv @ (s - m_mat)))

        w, frame, dual, companion = sampling.dual_mu_perturb_instance(rng, dim, partition)
        m_mat = multiplier(w, frame, companion)
        _check_inversion(m_mat, *invert_dual_mu_perturb(w, frame, dual, companion, tol=tol),
                         (eye, eye - m_mat))


def check_invertible_lower_bound(rng, trials):
    for trial in range(trials):
        dim, partition = random_partition(rng)
        if trial % 2 == 0:
            w, frame, companion = sampling.dual_perturb_instance(rng, dim, partition)
        else:
            w, frame, g = sampling.bijection_instance(rng, dim, partition)
            companion = GFrame.from_stacked(frame.analysis_matrix() @ g, partition)
        instances = [(w, frame, companion)]
        # plus a random pair with random complex weights, when invertible
        frame = sampling.random_gframe(rng, dim, partition)
        companion = sampling.random_gframe(rng, dim, partition)
        w = sampling.random_complex_weights(rng, len(partition))
        if np.linalg.svd(multiplier(w, frame, companion), compute_uv=False)[-1] >= 1e-6:
            instances.append((w, frame, companion))
        for w, frame, companion in instances:
            m_mat = multiplier(w, frame, companion)
            b_comp = frame_bounds(companion).upper
            claimed = 1 / (b_comp * operator_norm(np.linalg.inv(m_mat)) ** 2)
            _check(claimed <= weighted_bounds(frame, np.abs(w)).lower + 1e-9,
                   "lower bound from ||M^-1||")
            _check(abs(lower_bound_from_invertible(m_mat, b_comp) - claimed)
                   <= 1e-9 * (1 + claimed), "library lower bound")


def check_controlled(rng, trials):
    for _ in range(trials):
        frame = sampling.random_gframe(rng, *random_partition(rng))
        control = sampling.random_control_commuting(rng, frame)
        cb = controlled_bounds(frame, control)
        _check(cb.is_controlled_frame, "commuting control certifies")
        _check(all(controlled_equivalence(frame, control)), "controlled criterion")
        holds, defect = verify_commutation(frame, control)
        _check(holds and defect <= 1e-8, "commutation")
        fb = frame_bounds(frame)
        c_l, c_u = control.bounds
        derived = controlled_bound_arithmetic(cb.lower, cb.upper, fb.lower, fb.upper, c_l, c_u)
        for (lo, hi), (true_lo, true_hi) in (
            (derived.frame_operator_bounds, (fb.lower, fb.upper)),
            (derived.control_bounds, (c_l, c_u)),
            (derived.controlled_bounds, (cb.lower, cb.upper)),
        ):
            _check(lo - 1e-9 <= true_lo and true_hi <= hi + 1e-9,
                   "derived intervals contain the true bounds")
        _check(induced_controlled_frame(frame, control)[1], "induced controlled identity")


def check_controlled_equivalence(rng, trials):
    seen = set()
    for trial in range(trials):
        pick = trial % 5
        if pick == 0:
            frame = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.0)]])))
            control = ControlOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        else:
            dim, partition = random_partition(rng)
            make = sampling.random_deficient if pick == 2 else sampling.random_gframe
            frame = make(rng, dim, partition)
            if pick == 1:
                u = sampling.random_unitary(rng, dim)
                control = ControlOperator((u * rng.uniform(0.5, 3.0, dim)) @ u.conj().T)
            elif pick == 2:
                control = ControlOperator(np.eye(dim))
            elif pick == 3:
                signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
                control = ControlOperator(np.diag(signs * rng.uniform(0.5, 2.0, dim)))
            else:
                control = sampling.random_control_commuting(rng, frame)
        lhs, rhs = controlled_equivalence(frame, control)
        _check(lhs == rhs, f"controlled criterion sides differ: {lhs} vs {rhs}")
        seen.add(lhs)
    _check(seen == {True, False}, f"equivalence populations degenerate: {seen}")


def check_weighted(rng, trials):
    for _ in range(trials):
        frame = sampling.random_gframe(rng, *random_partition(rng))
        w = sampling.random_positive_weights(rng, frame.n_blocks)
        wb = weighted_bounds(frame, w)
        wv = weighted_vector_frame_bounds(induced_weighted_frame(frame, w))
        _check(abs(wb.lower - wv.lower) <= 1e-12 and abs(wb.upper - wv.upper) <= 1e-12,
               "weighted bounds match the induced vector family")
        scaled = scale_blocks(frame, w)
        _check(duality_defect(scaled, weighted_dual(frame, w)) <= 1e-10, "weighted duality")
        plain, got = frame_bounds(frame), frame_bounds(scaled)
        _check(got.lower >= w.min() ** 2 * plain.lower - 1e-9
               and got.upper <= w.max() ** 2 * plain.upper + 1e-9,
               "weighted bounds inside [a^2 A, b^2 B]")
        _, checks = weighted_multiplier_as_frame_operator(frame, w)
        _check(checks.matches_scaled_frame_operator and checks.self_adjoint
               and checks.lower_eigenvalue > 0 and checks.invertible,
               "weight multiplier is a frame operator")


def check_weighted_equivalence(rng, trials):
    for trial in range(trials):
        dim, partition = random_partition(rng)
        deficient = trial % 3 == 0
        make = sampling.random_deficient if deficient else sampling.random_gframe
        frame = make(rng, dim, partition)
        suite = weighted_equivalence_suite(
            frame,
            sampling.random_positive_weights(rng, frame.n_blocks),
            sampling.random_positive_weights(rng, frame.n_blocks),
        )
        _check(suite.unanimous, "six weighted statements agree")
        _check(suite.frame != deficient, "weighted frame verdict")


def check_weight_extraction(rng, trials):
    for _ in range(trials):
        _, partition = random_partition(rng)
        frame, control, planted = sampling.eigenblock_control_instance(rng, partition)
        extracted, is_mult = weight_from_control(frame, control)
        _check(np.max(np.abs(extracted.values - planted)) <= 1e-9, "extracted weights")
        recovered = multiplier(extracted, frame, canonical_dual(frame))
        _check(frobenius_norm(control.matrix - recovered)
               <= 1e-9 * (1 + frobenius_norm(control.matrix)), "recovered control")
        _check(is_mult, "control is the multiplier")


def check_io_roundtrip(rng, trials):
    for _ in range(trials):
        for kind in GENERATE_KINDS:
            dim, partition = random_partition(rng, square=kind in ("g_riesz", "g_onb"))
            inst = generate(kind, dim, partition, seed=int(rng.integers(0, 2**31)))
            text = serialize_instance(inst)
            again = parse_instance(text)
            _check(serialize_instance(again) == text, f"{kind} serialization round trip")
            _check(instance_digest(again) == instance_digest(inst), f"{kind} digest round trip")


CHECKS = [
    ("kernel unitary averages", check_kernel_unitary_averages, 1000),
    ("core induced-frame bridge", check_core_bridge, 1000),
    ("core canonical dual", check_core_dual, 500),
    ("decompositions reconstruct", check_decompositions, 500),
    ("coisometry image is Parseval", check_coisometry, 500),
    ("two-g-ONB combinations are g-Riesz", check_onb_combinations, 200),
    ("multiplier flattening and norm bound", check_multiplier, 1000),
    ("certified inversions", check_inversions, 200),
    ("invertible multiplier lower bound", check_invertible_lower_bound, 500),
    ("controlled frames", check_controlled, 200),
    ("controlled equivalence", check_controlled_equivalence, 500),
    ("weighted frames", check_weighted, 300),
    ("weighted equivalence", check_weighted_equivalence, 500),
    ("weight extraction", check_weight_extraction, 200),
    ("instance round-trip", check_io_roundtrip, 100),
]


def run_selftest(seed: int = 20240, stream=None) -> bool:
    """Run every check at its selftest count; print one line each; True iff all pass."""
    stream = stream or sys.stdout
    ok = True
    for index, (name, fn, trials) in enumerate(CHECKS):
        rng = np.random.default_rng(seed + index)
        start = time.perf_counter()
        try:
            fn(rng, max(1, trials // SELFTEST_DIVISOR))
        except Exception as exc:  # noqa: BLE001 - report and keep going
            ok = False
            print(f"FAIL {name}: {exc}", file=stream)
            continue
        elapsed = time.perf_counter() - start
        print(f"ok   {name} ({elapsed:.2f}s)", file=stream)
    return ok
