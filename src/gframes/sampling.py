"""Deterministic random instances for test corpora.

Every generator takes a numpy Generator, so the same seed always yields
the same family. Frames are drawn through an SVD recipe that pins the
singular-value range: test properties then hold with honest margins
instead of depending on how lucky a Gaussian draw was. The builders at
the bottom assemble complete hypothesis-satisfying inputs for each
inversion routine.
"""

from __future__ import annotations

import numpy as np

from . import core, kernel
from .controlled import ControlOperator
from .core import GFrame
from .errors import InfeasibleKind


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    return random_isometry(rng, n, n)


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if rows < cols:
        raise InfeasibleKind(f"isometry needs rows >= cols, got {rows} x {cols}")
    q, r = np.linalg.qr(_complex_gaussian(rng, rows, cols))
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases.conj()


def random_coisometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """K with K K* = I on C^rows; needs rows <= cols."""
    if rows > cols:
        raise InfeasibleKind(f"coisometry needs rows <= cols, got {rows} x {cols}")
    return random_isometry(rng, cols, rows).conj().T


def random_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _complex_gaussian(rng, n, n)
    return a * (rng.uniform(0.1, 1.0) / kernel.operator_norm(a))


def _partition_total(partition) -> int:
    sizes = [int(p) for p in partition]
    if not sizes or any(p < 1 for p in sizes):
        raise InfeasibleKind(f"invalid partition {sizes}")
    return sum(sizes)


def random_gframe(rng: np.random.Generator, dim: int, partition,
                  label: str | None = None, sv: np.ndarray | None = None) -> GFrame:
    """A g-frame with analysis singular values `sv`, or drawn inside [0.6, 1.8]."""
    total = _partition_total(partition)
    if total < dim:
        raise InfeasibleKind(
            f"block dimensions sum to {total} < {dim}; no frame exists"
        )
    left = random_isometry(rng, total, dim)
    right = random_unitary(rng, dim)
    sv = rng.uniform(0.6, 1.8, dim) if sv is None else sv
    stacked = (left * sv) @ right.conj().T
    return GFrame.from_stacked(stacked, partition, label=label)


def random_g_riesz(rng: np.random.Generator, dim: int, partition,
                   label: str | None = None) -> GFrame:
    if _partition_total(partition) != dim:
        raise InfeasibleKind("g-Riesz families need block dimensions summing to dim")
    return random_gframe(rng, dim, partition, label)


def random_g_onb(rng: np.random.Generator, dim: int, partition,
                 label: str | None = None) -> GFrame:
    if _partition_total(partition) != dim:
        raise InfeasibleKind("g-ONBs need block dimensions summing to dim")
    stacked = random_unitary(rng, dim)
    return GFrame.from_stacked(stacked, partition, label=label)


def random_parseval(rng: np.random.Generator, dim: int, partition,
                    label: str | None = None) -> GFrame:
    total = _partition_total(partition)
    if total < dim:
        raise InfeasibleKind("Parseval families need block dimensions summing to >= dim")
    stacked = random_isometry(rng, total, dim)
    return GFrame.from_stacked(stacked, partition, label=label)


def random_deficient(rng: np.random.Generator, dim: int, partition,
                     label: str | None = None) -> GFrame:
    """A g-Bessel family whose analysis matrix misses one direction."""
    total = _partition_total(partition)
    left = random_isometry(rng, max(total, dim), dim)[:total]
    right = random_unitary(rng, dim)
    sv = rng.uniform(0.6, 1.8, dim)
    sv[-1] = 0.0
    stacked = (left * sv) @ right.conj().T
    return GFrame.from_stacked(stacked, partition, label=label)


def random_control_commuting(rng: np.random.Generator, frame: GFrame) -> ControlOperator:
    """A positive control operator commuting with S: a polynomial in S."""
    s = core.frame_operator(frame)
    c0, c1, c2 = rng.uniform(0.2, 1.0, 3)
    c = c0 * np.eye(frame.h_dim) + c1 * s + c2 * (s @ s)
    return ControlOperator(c)


def random_positive_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.5, 2.0, n)


def random_complex_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    moduli = rng.uniform(0.5, 2.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return moduli * np.exp(1j * phases)


def eigenblock_control_instance(rng: np.random.Generator, partition):
    """A frame whose synthesis ranges are eigenspaces of a positive C.

    Block i spans a w_i-eigenspace of C, so C acts as the scalar w_i on
    it. Returns (frame, control, true_weights).
    """
    sizes = [int(p) for p in partition]
    dim = sum(sizes)
    basis = random_unitary(rng, dim)
    true_w = rng.uniform(0.5, 3.0, len(sizes))
    blocks = []
    offset = 0
    for d_i in sizes:
        columns = basis[:, offset:offset + d_i]
        mix = random_unitary(rng, d_i) * rng.uniform(0.6, 1.6, d_i)
        blocks.append((columns @ mix).conj().T)
        offset += d_i
    per_dim = np.repeat(true_w, sizes)
    control = ControlOperator((basis * per_dim) @ basis.conj().T)
    return GFrame(dim, tuple(blocks)), control, true_w


# -- hypothesis-satisfying inversion instances ---------------------------------


def bijection_instance(rng: np.random.Generator, dim: int, partition,
                       negative: bool = False):
    """(weights, frame, G) for the exact bijection inversion."""
    frame = random_gframe(rng, dim, partition)
    sign = -1.0 if negative else 1.0
    weights = sign * random_positive_weights(rng, len(list(partition)))
    left = random_unitary(rng, dim)
    right = random_unitary(rng, dim)
    g = (left * rng.uniform(0.5, 2.0, dim)) @ right.conj().T
    return weights, frame, g


def dual_perturb_instance(rng: np.random.Generator, dim: int, partition,
                          frac: float = 0.5):
    """(weights, frame, dual) with lambda*sqrt(B_Lambda*B_dual) <= frac."""
    frame = random_gframe(rng, dim, partition)
    dual = core.canonical_dual(frame)
    b_frame = core.frame_bounds(frame).upper
    b_dual = core.frame_bounds(dual).upper
    lam = frac / np.sqrt(b_frame * b_dual)
    n = len(list(partition))
    weights = 1.0 + rng.uniform(-lam, lam, n)
    return weights, frame, dual


def canonical_dual_instance(rng: np.random.Generator, dim: int, partition,
                            frac: float = 0.5):
    """(weights, frame) with lambda <= frac*sqrt(A_Lambda/B_Lambda)."""
    frame = random_gframe(rng, dim, partition)
    bounds = core.frame_bounds(frame)
    lam = frac * np.sqrt(bounds.lower / bounds.upper)
    n = len(list(partition))
    weights = 1.0 + rng.uniform(-lam, lam, n)
    return weights, frame


def _scaled_perturbation(rng, frame: GFrame, target_upper: float) -> np.ndarray:
    """A stacked Gaussian perturbation with optimal upper bound target_upper."""
    blocks = tuple(_complex_gaussian(rng, *b.shape) for b in frame.blocks)
    raw = GFrame(frame.h_dim, blocks)
    return np.sqrt(target_upper / core.frame_bounds(raw).upper) * raw.analysis_matrix()


def bessel_perturb_instance(rng: np.random.Generator, dim: int, partition,
                            negative: bool = False, frac: float = 0.25):
    """(weights, frame, companion) satisfying both perturbation inequalities."""
    frame = random_gframe(rng, dim, partition)
    bounds = core.frame_bounds(frame)
    n = len(list(partition))
    sign = -1.0 if negative else 1.0
    weights = sign * rng.uniform(0.9, 1.1, n)
    a_w = np.abs(weights).min()
    b_w = np.abs(weights).max()
    # stay a factor frac below both B_diff ceilings
    ceiling = (bounds.lower**2 / bounds.upper) * min(1.0, (a_w / b_w) ** 2)
    delta = _scaled_perturbation(rng, frame, frac * ceiling)
    companion = GFrame.from_stacked(frame.analysis_matrix() + delta, frame.partition)
    return weights, frame, companion


def mu_perturb_instance(rng: np.random.Generator, dim: int, partition,
                        frac: float = 0.25):
    """(weights, frame, companion) with mu <= frac*A_Lambda^2/B_Lambda."""
    frame = random_gframe(rng, dim, partition)
    bounds = core.frame_bounds(frame)
    n = len(list(partition))
    weights = rng.uniform(0.7, 1.4, n)
    target = frac * bounds.lower**2 / bounds.upper
    delta = _scaled_perturbation(rng, frame, target)
    companion = GFrame.from_stacked(
        (frame.analysis_matrix() + delta) / frame.per_row(weights)[:, None],
        frame.partition,
    )
    return weights, frame, companion


def dual_mu_perturb_instance(rng: np.random.Generator, dim: int, partition,
                             frac: float = 0.25):
    """(weights, frame, dual, companion) with mu <= frac/B_Lambda."""
    frame = random_gframe(rng, dim, partition)
    dual = core.canonical_dual(frame)
    b_frame = core.frame_bounds(frame).upper
    n = len(list(partition))
    weights = rng.uniform(0.7, 1.4, n)
    target = frac / b_frame
    delta = _scaled_perturbation(rng, frame, target)
    companion = GFrame.from_stacked(
        (dual.analysis_matrix() + delta) / frame.per_row(weights)[:, None],
        frame.partition,
    )
    return weights, frame, dual, companion
