"""A fast self-contained property corpus.

Runs one compact randomized check per guarantee the package makes, at
dimensions up to 6, with fixed seeds. The CLI `selftest` command calls
this; the pytest suite runs the same properties at full trial counts.
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
    frame_bounds,
    frame_operator,
    gframe_from_vector_frame,
    induced_frame,
    scale_blocks,
    verify_duality,
)
from .decompositions import (
    coisometry_image,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
)
from .io import generate, instance_digest, parse_instance, serialize_instance
from .kernel import (
    frobenius_norm,
    operator_norm,
    polar_decompose,
    psd_sqrt,
    spectral_range,
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

_TRIALS = 20


class CheckFailed(Exception):
    """A property of the corpus did not hold."""


def _check(condition, message: str) -> None:
    # an explicit raise, unlike a bare assert, survives python -O
    if not condition:
        raise CheckFailed(message)


def _random_partition(rng, max_dim=6, square=False, min_total=None):
    dim = int(rng.integers(2, max_dim + 1))
    if square:
        total = dim
    else:
        total = int(rng.integers(dim if min_total is None else min_total, dim + 4))
    sizes = []
    remaining = total
    while remaining > 0:
        p = int(rng.integers(1, remaining + 1))
        sizes.append(p)
        remaining -= p
    return dim, tuple(sizes)


def _unitary_defect(u):
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))


def check_kernel_polar(rng):
    for _ in range(_TRIALS):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(1, rows + 1))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        parts = polar_decompose(a)
        recon = parts.isometry @ parts.positive
        _check(frobenius_norm(recon - a) <= 1e-9 * (1 + frobenius_norm(a)),
               "polar reconstruction")
        _check(frobenius_norm(
            parts.isometry.conj().T @ parts.isometry - np.eye(cols)
        ) <= 1e-10, "polar isometry")


def check_kernel_pair(rng):
    for _ in range(_TRIALS):
        n = int(rng.integers(1, 7))
        a = sampling.random_contraction(rng, n)
        u1, u2 = unitary_pair_from_contraction(a)
        _check(_unitary_defect(u1) <= 1e-10 and _unitary_defect(u2) <= 1e-10,
               "pair unitarity")
        _check(frobenius_norm((u1 + u2) / 2 - a) <= 1e-9 * (1 + frobenius_norm(a)),
               "pair average")


def check_kernel_triple(rng):
    for _ in range(_TRIALS):
        n = int(rng.integers(1, 7))
        a = sampling.random_contraction(rng, n, max_norm=1.0 / 3.0)
        u1, u2, u3 = unitary_triple_from_small_norm(a)
        for u in (u1, u2, u3):
            _check(_unitary_defect(u) <= 1e-10, "triple unitarity")
        _check(frobenius_norm((u1 + u2 + u3) / 3 - a) <= 1e-9 * (1 + frobenius_norm(a)),
               "triple average")


def check_kernel_psd_sqrt(rng):
    for _ in range(_TRIALS):
        n = int(rng.integers(1, 7))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = b.conj().T @ b
        r = psd_sqrt(m)
        _check(frobenius_norm(r @ r - m) <= 1e-9 * (1 + frobenius_norm(m)),
               "psd square root")


def check_kernel_spectral_range(rng):
    for _ in range(_TRIALS):
        n = int(rng.integers(1, 7))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (b + b.conj().T) / 2
        lo, hi = spectral_range(h)
        for _ in range(50):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f /= np.linalg.norm(f)
            q = float(np.vdot(f, h @ f).real)
            _check(lo - 1e-9 <= q <= hi + 1e-9, "Rayleigh quotient in range")


def check_core_frame_operator(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        t = frame.analysis_matrix()
        _check(frobenius_norm(frame_operator(frame) - t.conj().T @ t) <= 1e-12 * (
            1 + frobenius_norm(t) ** 2
        ), "S = T* T")


def check_core_dual(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        bounds = frame_bounds(frame)
        dual = canonical_dual(frame)
        dual_bounds = frame_bounds(dual)
        _check(abs(dual_bounds.lower - 1 / bounds.upper) <= 1e-9 / bounds.upper,
               "dual lower bound 1/B")
        _check(abs(dual_bounds.upper - 1 / bounds.lower) <= 1e-9 / bounds.lower,
               "dual upper bound 1/A")
        _check(verify_duality(frame, dual), "canonical duality")


def check_core_bridge(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        vframe = induced_frame(frame)
        flat = gframe_from_vector_frame(vframe, [1] * len(vframe))
        rep, flat_rep = classify(frame), classify(flat)
        _check(rep.is_g_frame == flat_rep.is_g_frame, "g-frame verdict transfers")
        _check(rep.is_g_riesz == flat_rep.is_g_riesz, "g-Riesz verdict transfers")
        _check(abs(rep.bounds.lower - flat_rep.bounds.lower) <= 1e-12 * (
            1 + rep.bounds.upper
        ), "lower bound transfers")
        regrouped = gframe_from_vector_frame(vframe, frame.partition)
        _check(all(
            np.array_equal(a, b)
            for a, b in zip(regrouped.blocks, frame.blocks)
        ), "regrouping restores blocks")


def check_decompositions(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng, square=True)
        frame = sampling.random_g_riesz(rng, dim, partition)
        for op in (decompose_three_gonb, decompose_two_gonb_combo,
                   decompose_gonb_plus_griesz, decompose_two_parseval):
            dec = op(frame)
            _check(dec.reconstruction_residual <= 1e-9 * (
                1 + frobenius_norm(frame.analysis_matrix())
            ), f"{op.__name__} reconstruction")
        dim, partition = _random_partition(rng)
        overcomplete = sampling.random_gframe(rng, dim, partition)
        dec = decompose_two_parseval(overcomplete)
        _check(dec.reconstruction_residual <= 1e-9 * (
            1 + frobenius_norm(overcomplete.analysis_matrix())
        ), "overcomplete two-Parseval reconstruction")


def check_coisometry(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng, square=True)
        theta = sampling.random_g_onb(rng, dim, partition)
        d0 = int(rng.integers(1, dim + 1))
        k = sampling.random_coisometry(rng, d0, dim)
        image = coisometry_image(theta, k)
        bounds = frame_bounds(image)
        _check(abs(bounds.lower - 1) <= 1e-9 and abs(bounds.upper - 1) <= 1e-9,
               "Parseval image bounds")


def check_multiplier_norm(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        companion = sampling.random_gframe(rng, dim, partition)
        w = sampling.random_complex_weights(rng, len(partition))
        m = multiplier(w, frame, companion)
        _check(operator_norm(m) <= multiplier_norm_bound(w, frame, companion) + 1e-9,
               "multiplier norm bound")


def _check_inversion(m_mat, m_inv, cert):
    true_norm = operator_norm(np.linalg.inv(m_mat))
    _check(cert.residual <= 1e-8, f"{cert.proposition.value} residual")
    _check(cert.inverse_norm_lower - 1e-9 <= true_norm <= cert.inverse_norm_upper + 1e-9,
           f"{cert.proposition.value} bracket")
    _check(frobenius_norm(m_inv - np.linalg.inv(m_mat)) <= 1e-7,
           f"{cert.proposition.value} inverse")


def check_inversions(rng):
    for _ in range(_TRIALS // 2):
        dim, partition = _random_partition(rng)

        w, frame, g = sampling.bijection_instance(rng, dim, partition)
        m_inv, cert = invert_via_bijection(w, frame, g)
        companion = GFrame.from_stacked(frame.analysis_matrix() @ g, partition)
        _check_inversion(multiplier(w, frame, companion), m_inv, cert)

        w, frame, dual = sampling.dual_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_dual_neumann(w, frame, dual, tol=1e-10)
        _check_inversion(multiplier(w, frame, dual), m_inv, cert)

        w, frame = sampling.canonical_dual_instance(rng, dim, partition)
        m_inv, cert = invert_canonical_dual(w, frame, tol=1e-10)
        _check_inversion(multiplier(w, frame, canonical_dual(frame)), m_inv, cert)

        w, frame, companion = sampling.bessel_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_bessel_perturb(w, frame, companion, tol=1e-12)
        _check_inversion(multiplier(w, frame, companion), m_inv, cert)

        w, frame, companion = sampling.mu_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_mu_perturb(w, frame, companion, tol=1e-12)
        _check_inversion(multiplier(w, frame, companion), m_inv, cert)

        w, frame, dual, companion = sampling.dual_mu_perturb_instance(rng, dim, partition)
        m_inv, cert = invert_dual_mu_perturb(w, frame, dual, companion, tol=1e-10)
        _check_inversion(multiplier(w, frame, companion), m_inv, cert)


def check_invertible_lower_bound(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        companion = sampling.random_gframe(rng, dim, partition)
        w = sampling.random_complex_weights(rng, len(partition))
        m = multiplier(w, frame, companion)
        if np.linalg.svd(m, compute_uv=False)[-1] < 1e-6:
            continue
        bound = lower_bound_from_invertible(m, frame_bounds(companion).upper)
        achieved = weighted_bounds(frame, np.abs(w)).lower
        _check(achieved >= bound - 1e-9, "lower bound from ||M^-1||")


def check_controlled(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        control = sampling.random_control_commuting(rng, frame)
        lhs, rhs = controlled_equivalence(frame, control)
        _check(lhs and rhs, "controlled criterion")
        holds, defect = verify_commutation(frame, control)
        _check(holds and defect <= 1e-8, "commutation")
        cb = controlled_bounds(frame, control)
        fb = frame_bounds(frame)
        derived = controlled_bound_arithmetic(
            cb.lower, cb.upper, fb.lower, fb.upper,
            control.bounds[0], control.bounds[1],
        )
        _check(derived.frame_operator_bounds[0] <= fb.lower + 1e-9, "derived lower bound")
        _check(derived.frame_operator_bounds[1] >= fb.upper - 1e-9, "derived upper bound")
        _, identity_ok = induced_controlled_frame(frame, control)
        _check(identity_ok, "induced controlled identity")


def check_weighted(rng):
    for _ in range(_TRIALS):
        dim, partition = _random_partition(rng)
        frame = sampling.random_gframe(rng, dim, partition)
        w = sampling.random_positive_weights(rng, len(partition))
        wb = weighted_bounds(frame, w)
        wv = weighted_vector_frame_bounds(induced_weighted_frame(frame, w))
        _check(abs(wb.lower - wv.lower) <= 1e-12 * (1 + wb.upper), "weighted lower bound")
        _check(abs(wb.upper - wv.upper) <= 1e-12 * (1 + wb.upper), "weighted upper bound")
        dual = weighted_dual(frame, w)
        _check(verify_duality(scale_blocks(frame, w), dual, tol=1e-10),
               "weighted duality")
        _, checks = weighted_multiplier_as_frame_operator(frame, w)
        _check(checks.matches_scaled_frame_operator and checks.invertible,
               "weight multiplier")
        w_alt = sampling.random_positive_weights(rng, len(partition))
        suite = weighted_equivalence_suite(frame, w, w_alt)
        _check(suite.unanimous and suite.frame, "six weighted statements")


def check_weight_extraction(rng):
    for _ in range(_TRIALS):
        _, partition = _random_partition(rng)
        frame, control, true_w = sampling.eigenblock_control_instance(rng, partition)
        weights, is_mult = weight_from_control(frame, control)
        _check(np.allclose(weights.values.real, true_w, atol=1e-8), "extracted weights")
        _check(is_mult, "control is the multiplier")


def check_io_roundtrip(rng):
    for trial in range(_TRIALS):
        dim, partition = _random_partition(rng)
        kind = ("random_gframe", "controlled_commuting", "weighted")[trial % 3]
        inst = generate(kind, dim, partition, seed=int(rng.integers(0, 2**31)))
        text = serialize_instance(inst)
        again = parse_instance(text)
        _check(serialize_instance(again) == text, "serialization round trip")
        _check(instance_digest(again) == instance_digest(inst), "digest round trip")


CHECKS = [
    ("kernel polar reconstruction", check_kernel_polar),
    ("kernel two-unitary average", check_kernel_pair),
    ("kernel three-unitary average", check_kernel_triple),
    ("kernel psd square root", check_kernel_psd_sqrt),
    ("kernel spectral range", check_kernel_spectral_range),
    ("core frame operator", check_core_frame_operator),
    ("core canonical dual", check_core_dual),
    ("core induced-frame bridge", check_core_bridge),
    ("decompositions reconstruct", check_decompositions),
    ("coisometry image is Parseval", check_coisometry),
    ("multiplier norm bound", check_multiplier_norm),
    ("certified inversions", check_inversions),
    ("invertible multiplier lower bound", check_invertible_lower_bound),
    ("controlled frames", check_controlled),
    ("weighted frames", check_weighted),
    ("weight extraction", check_weight_extraction),
    ("instance round-trip", check_io_roundtrip),
]


def run_selftest(seed: int = 20240, stream=None) -> bool:
    """Run every check; print one line each; True iff all pass."""
    stream = stream or sys.stdout
    ok = True
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng(seed + index)
        start = time.perf_counter()
        try:
            fn(rng)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            ok = False
            print(f"FAIL {name}: {exc}", file=stream)
            continue
        elapsed = time.perf_counter() - start
        print(f"ok   {name} ({elapsed:.2f}s)", file=stream)
    return ok
