"""Structured splittings: averaged g-ONBs, Parseval pairs, coisometry images."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_factorizations, identity_gframe
from gframes import (
    ComponentKind,
    GFrame,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator,
    scale_blocks,
    verify_duality,
)
from gframes import core, decompositions, kernel
from gframes.decompositions import (
    _certified,
    coisometry_image,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
)
from gframes.errors import (
    DimensionMismatch,
    GFrameError,
    NotAFrame,
    NotCoisometry,
    NotGOnb,
    NotGRiesz,
)
from gframes.kernel import frobenius_norm
from gframes.sampling import (
    random_coisometry,
    random_deficient,
    random_g_onb,
    random_g_riesz,
    random_gframe,
)
from gframes.selftest import random_partition


def reconstruction(dec):
    return sum(
        s * c.analysis_matrix() for s, c in zip(dec.scalars, dec.components)
    )


def assert_certified(dec, frame):
    t = frame.analysis_matrix()
    assert dec.reconstruction_residual <= 1e-9 * (1 + frobenius_norm(t))
    assert frobenius_norm(reconstruction(dec) - t) == pytest.approx(
        dec.reconstruction_residual, abs=1e-12
    )
    for comp, kind in zip(dec.components, dec.component_kinds):
        rep = classify(comp)
        if kind is ComponentKind.G_ONB:
            assert rep.is_g_onb
        elif kind is ComponentKind.NORMALIZED_TIGHT:
            assert rep.is_parseval
        else:
            assert rep.is_g_riesz


# -- three-g-ONB sums --


def test_three_gonb_random_riesz():
    rng = np.random.default_rng(211)
    frame = random_g_riesz(rng, 4, (2, 2))
    dec = decompose_three_gonb(frame)
    assert dec.component_kinds == (ComponentKind.G_ONB,) * 3
    assert dec.scalars == (dec.scalars[0],) * 3
    assert_certified(dec, frame)


def test_three_gonb_scalar_is_operator_norm():
    # a = s[0] from the SVD of T agrees with sqrt(B), B = lambda_max(S)
    # from the eigh of S
    rng = np.random.default_rng(223)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(10):
            frame = scale_blocks(random_g_riesz(rng, 5, (1, 2, 2)), [scale] * 3)
            a = decompose_three_gonb(frame).scalars[0]
            assert a == pytest.approx(np.linalg.norm(frame.analysis_matrix(), 2))
            assert a == pytest.approx(np.sqrt(frame_bounds(frame).upper), rel=1e-12)


def test_three_gonb_scaling_covariance():
    rng = np.random.default_rng(227)
    frame = random_g_riesz(rng, 4, (2, 2))
    base = decompose_three_gonb(frame)
    for c in (0.5, 3.0):
        scaled = decompose_three_gonb(
            GFrame(4, tuple(c * b for b in frame.blocks))
        )
        assert scaled.scalars[0] == pytest.approx(c * base.scalars[0])
        assert_certified(scaled, GFrame(4, tuple(c * b for b in frame.blocks)))


def test_three_gonb_rejects_overcomplete():
    rng = np.random.default_rng(229)
    with pytest.raises(DimensionMismatch):
        decompose_three_gonb(random_gframe(rng, 3, (2, 2)))


def test_three_gonb_rejects_non_frame():
    rng = np.random.default_rng(233)
    with pytest.raises(NotAFrame):
        decompose_three_gonb(random_deficient(rng, 4, (2, 2)))


# -- two-g-ONB combinations (g-Riesz only) --


def test_two_gonb_diagonal_example():
    # T = 2I: contraction T/||T|| = I splits into (I, I), scalars 1, 1
    frame = GFrame(2, (np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])))
    dec = decompose_two_gonb_combo(frame)
    assert dec.scalars == pytest.approx((1.0, 1.0))
    assert dec.reconstruction_residual <= 1e-12
    for comp in dec.components:
        assert np.allclose(comp.analysis_matrix(), np.eye(2))


def test_two_gonb_random_invertible():
    rng = np.random.default_rng(239)
    frame = random_g_riesz(rng, 4, (1, 3))
    dec = decompose_two_gonb_combo(frame)
    assert dec.component_kinds == (ComponentKind.G_ONB,) * 2
    assert_certified(dec, frame)


def test_two_gonb_rejects_non_riesz():
    rng = np.random.default_rng(241)
    with pytest.raises(NotGRiesz):
        decompose_two_gonb_combo(random_gframe(rng, 3, (2, 2)))
    with pytest.raises(NotGRiesz):
        decompose_two_gonb_combo(random_deficient(rng, 4, (2, 2)))


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_two_gonb_converse(seed):
    # a*Y + b*G with 0 < |a| < |b| from two g-ONBs is always g-Riesz
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng, square=True)
    y = random_g_onb(rng, dim, partition)
    g = random_g_onb(rng, dim, partition)
    a = float(rng.uniform(0.1, 0.9))
    b = float(rng.uniform(a + 0.05, 2.0))
    combo = GFrame(
        dim, tuple(a * yb + b * gb for yb, gb in zip(y.blocks, g.blocks))
    )
    assert classify(combo).is_g_riesz


# -- coisometry images --


def test_coisometry_identity_example():
    theta = identity_gframe(2)
    image = coisometry_image(theta, np.array([[1.0, 0.0]]))
    assert image.h_dim == 1
    assert np.allclose(image.blocks[0], [[1.0]])
    assert np.allclose(image.blocks[1], [[0.0]])
    b = frame_bounds(image)
    assert (b.lower, b.upper) == pytest.approx((1.0, 1.0))


def test_coisometry_random_is_parseval():
    rng = np.random.default_rng(251)
    for _ in range(25):
        dim, partition = random_partition(rng, square=True)
        theta = random_g_onb(rng, dim, partition)
        d0 = int(rng.integers(1, dim + 1))
        image = coisometry_image(theta, random_coisometry(rng, d0, dim))
        b = frame_bounds(image)
        assert abs(b.lower - 1.0) <= 1e-10
        assert abs(b.upper - 1.0) <= 1e-10


def test_coisometry_rejects_non_onb():
    rng = np.random.default_rng(257)
    frame = random_g_riesz(rng, 4, (2, 2), sv_range=(0.5, 2.0))
    with pytest.raises(NotGOnb):
        coisometry_image(frame, random_coisometry(rng, 2, 4))


def test_coisometry_rejects_bad_k():
    rng = np.random.default_rng(263)
    theta = random_g_onb(rng, 4, (2, 2))
    with pytest.raises(NotCoisometry):
        coisometry_image(theta, np.ones((2, 4)))
    with pytest.raises(NotCoisometry):
        coisometry_image(theta, random_coisometry(rng, 2, 3))


# -- two-Parseval sums --


def test_two_parseval_overcomplete():
    rng = np.random.default_rng(269)
    frame = random_gframe(rng, 3, (2, 2))
    dec = decompose_two_parseval(frame)
    assert dec.component_kinds == (ComponentKind.NORMALIZED_TIGHT,) * 2
    assert dec.scalars[0] == pytest.approx(
        np.linalg.norm(frame.analysis_matrix(), 2) / 2
    )
    assert_certified(dec, frame)


def test_two_parseval_components_are_adjoint_related():
    # the two components share the polar isometry: V B and V B*
    rng = np.random.default_rng(271)
    frame = random_gframe(rng, 4, (2, 2, 1))
    dec = decompose_two_parseval(frame)
    c1 = dec.components[0].analysis_matrix()
    c2 = dec.components[1].analysis_matrix()
    assert frobenius_norm(c1.conj().T @ c1 - np.eye(4)) <= 1e-9
    assert frobenius_norm(c1.conj().T @ c2 + c2.conj().T @ c1 - 2 * np.eye(4)) > 0


def test_two_parseval_rejects_non_frame():
    rng = np.random.default_rng(277)
    with pytest.raises(NotAFrame):
        decompose_two_parseval(random_deficient(rng, 3, (2, 2)))


def _recorded_factorizations(monkeypatch, frame):
    """(name, argument) of every factorization that bounds, classify, the
    canonical dual and a certified Parseval pair of `frame` run, and the pair."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky", "inv"):
        def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kw):
            seen.append((_name, np.array(a)))
            return _original(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recorded)
    frame_operator(frame)
    frame_bounds(frame)
    classify(frame)
    canonical_dual(frame)
    dec = decompose_two_parseval(frame)
    assert_certified(dec, frame)
    s = frame_operator(frame)
    assert [n for n, a in seen if np.array_equal(a, s)] == ["eigvalsh"] + (
        ["cholesky"] if frame.analysis_matrix().shape[0] > core._DIRECT_SVD_ROWS else [])
    assert [n for n, a in seen for c in dec.components
            if np.array_equal(a, frame_operator(c))] == ["eigvalsh", "eigvalsh"]
    return seen


def test_a_short_tall_frame_runs_one_direct_svd_of_t(monkeypatch):
    # bounds and classification share one eigvalsh of S; the canonical
    # dual and the Parseval pair share the one direct thin SVD of the
    # 10-row T, and nothing else is factored
    frame = random_gframe(np.random.default_rng(283), 6, (2, 1, 3, 2, 2))
    seen = _recorded_factorizations(monkeypatch, frame)
    t = frame.analysis_matrix()
    assert t.shape == (10, 6)
    assert sorted((n, a.shape) for n, a in seen) == [
        ("eigvalsh", (6, 6))] * 3 + [("svd", (10, 6))]
    assert [n for n, a in seen if np.array_equal(a, t)] == ["svd"]


def test_a_very_tall_frame_factors_nothing_of_n_by_d_shape(monkeypatch):
    # above _DIRECT_SVD_ROWS the thin SVD is CholeskyQR2's: a Cholesky of
    # S and of one d x d Gram, two d x d inverses and one d x d svd
    frame = random_gframe(np.random.default_rng(283), 6, (2, 1, 3, 2, 2) * 30)
    seen = _recorded_factorizations(monkeypatch, frame)
    assert frame.analysis_matrix().shape == (300, 6)
    assert sorted((n, a.shape) for n, a in seen) == (
        [("cholesky", (6, 6))] * 2 + [("eigvalsh", (6, 6))] * 3
        + [("inv", (6, 6))] * 2 + [("svd", (6, 6))])


def test_each_certificate_runs_only_the_factorization_it_needs(monkeypatch):
    # the four splittings share the frame's one SVD of T: whichever runs
    # first takes it, the others none. g-ONB and Parseval components are
    # certified from their S alone, g-Riesz components by one eigvalsh of
    # it; nothing computes eigenvectors of S
    rng = np.random.default_rng(307)
    riesz = random_g_riesz(rng, 6, (2, 1, 3))
    onb = random_g_onb(rng, 6, (2, 1, 3))
    k = random_coisometry(rng, 3, 6)
    component_checks = {
        decompose_three_gonb: {},
        decompose_two_gonb_combo: {},
        decompose_two_parseval: {},
        decompose_gonb_plus_griesz: {"eigvalsh": 1},
    }
    calls = count_factorizations(monkeypatch)
    for first in component_checks:
        frame = GFrame.from_stacked(riesz.analysis_matrix(), riesz.partition)
        calls.clear()
        assert classify(frame).is_g_riesz
        assert calls == {"eigvalsh": 1}
        for op in (first, *(op for op in component_checks if op is not first)):
            calls.clear()
            op(frame)
            expected = {**component_checks[op], **({"svd": 1} if op is first else {})}
            assert calls == expected, op
    calls.clear()
    coisometry_image(onb, k)
    assert calls == {}


def test_a_square_dual_is_one_inv_and_leaves_the_svd_to_the_splittings(monkeypatch):
    # a square T's dual is T^-*, one LU solve after the frame verdict's
    # eigvalsh; the four splittings then still share one SVD of T, and
    # the g-Riesz component of the last costs one eigvalsh
    rng = np.random.default_rng(311)
    riesz = random_g_riesz(rng, 6, (2, 1, 3))
    calls = count_factorizations(monkeypatch)
    dual = canonical_dual(riesz)
    assert calls == {"eigvalsh": 1, "inv": 1}
    assert verify_duality(riesz, dual) and calls == {"eigvalsh": 1, "inv": 1}
    calls.clear()
    for op in (decompose_three_gonb, decompose_two_gonb_combo,
               decompose_two_parseval, decompose_gonb_plus_griesz):
        op(riesz)
    assert calls == {"svd": 1, "eigvalsh": 1}


def test_the_svd_of_t_is_cached_read_only_and_not_copied(monkeypatch):
    # a square T is factored directly, a tall one from its spectrum; both
    # are cached the same way
    rng = np.random.default_rng(309)
    riesz = random_g_riesz(rng, 5, (2, 3), label="f")
    tall = random_gframe(rng, 5, (2, 3, 2), label="f")
    calls = count_factorizations(monkeypatch)
    for frame, ops in (
        (riesz, (decompose_three_gonb, decompose_two_gonb_combo,
                 decompose_two_parseval, decompose_gonb_plus_griesz)),
        (tall, (decompose_two_parseval,) * 2),
    ):
        twin = GFrame.from_stacked(frame.analysis_matrix(), frame.partition, label="f")
        calls.clear()
        for op in ops:
            assert_certified(op(frame), frame)
        assert calls["svd"] == 1 and calls["qr"] == 0
        u, s, vh = frame._svd
        t = frame.analysis_matrix()
        assert frobenius_norm((u * s) @ vh - t) <= 1e-12 * frobenius_norm(t)
        assert frobenius_norm(u.conj().T @ u - np.eye(5)) <= 1e-12
        for part in (u, s, vh):
            with pytest.raises(ValueError):
                part.flat[0] = 0.0
        # the cache is no field: equality, hash and repr ignore it
        assert "_svd" in vars(frame) and "_svd" not in vars(twin)
        assert frame == twin and hash(frame) == hash(twin) and repr(frame) == repr(twin)
        for clone in (pickle.loads(pickle.dumps(frame)), copy.deepcopy(frame)):
            assert clone == frame
            assert not {"_svd", "_bounds", "_operator"} & vars(clone).keys()


def test_non_unitary_components_are_rejected(monkeypatch):
    # (W B + E, W B* - E) keeps the sum, so the reconstruction check
    # passes and only the component certificates can catch it
    rng = np.random.default_rng(311)
    frame = random_g_riesz(rng, 4, (2, 2))
    original = kernel._unitary_pair

    def skewed(u, s, vh):
        first, second = original(u, s, vh)
        e = np.full_like(first, 1e-6)
        return first + e, second - e

    monkeypatch.setattr(kernel, "_unitary_pair", skewed)
    monkeypatch.setattr(decompositions, "_unitary_pair", skewed)
    for op, kind in (
        (decompose_three_gonb, "GOnb"),
        (decompose_two_gonb_combo, "GOnb"),
        (decompose_two_parseval, "NormalizedTight"),
    ):
        with pytest.raises(GFrameError, match=f"not a {kind}$"):
            op(frame)


def test_g_riesz_component_must_be_square_and_invertible():
    rng = np.random.default_rng(313)
    riesz = random_g_riesz(rng, 4, (2, 2))
    kinds = (ComponentKind.G_RIESZ,)
    assert _certified(1.0, (riesz.analysis_matrix(),), kinds, riesz).components
    for frame in (random_deficient(rng, 4, (2, 2)), random_gframe(rng, 3, (2, 2))):
        with pytest.raises(GFrameError, match="not a GRiesz$"):
            _certified(1.0, (frame.analysis_matrix(),), kinds, frame)


# -- g-ONB plus g-Riesz --


def test_gonb_plus_griesz_random():
    rng = np.random.default_rng(281)
    frame = random_g_riesz(rng, 4, (2, 2))
    dec = decompose_gonb_plus_griesz(frame)
    assert dec.scalars == (1.0, 1.0)
    assert dec.component_kinds == (ComponentKind.G_ONB, ComponentKind.G_RIESZ)
    assert dec.reconstruction_residual <= 1e-12 * (
        1 + frobenius_norm(frame.analysis_matrix())
    )
    assert_certified(dec, frame)


def test_gonb_plus_griesz_rejects():
    rng = np.random.default_rng(283)
    with pytest.raises(DimensionMismatch):
        decompose_gonb_plus_griesz(random_gframe(rng, 3, (2, 2)))
    with pytest.raises(NotAFrame):
        decompose_gonb_plus_griesz(random_deficient(rng, 4, (2, 2)))


# -- cross-cutting properties --


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1))
def test_all_square_ops_reconstruct(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng, square=True)
    frame = random_g_riesz(rng, dim, partition)
    for op in (
        decompose_three_gonb,
        decompose_two_gonb_combo,
        decompose_two_parseval,
        decompose_gonb_plus_griesz,
    ):
        assert_certified(op(frame), frame)


def test_component_blocks_share_partition():
    rng = np.random.default_rng(293)
    frame = random_gframe(rng, 3, (1, 2, 2))
    dec = decompose_two_parseval(frame)
    for comp in dec.components:
        assert comp.partition == frame.partition
        assert comp.h_dim == frame.h_dim
