"""Frame operator, bounds, classification, duals and the induced-frame bridge."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import check_value_object, complex_gaussian, identity_gframe, random_unit
from gframes import (
    FrameClass,
    GFrame,
    canonical_dual,
    classify,
    coisometry_image,
    decompose_two_parseval,
    duality_defect,
    frame_bounds,
    frame_operator,
    gframe_from_vector_frame,
    induced_frame,
    invert_bessel_perturb,
    invert_mu_perturb,
    invert_via_bijection,
    VectorFrame,
    scale_blocks,
    vector_frame_operator,
    verify_duality,
    weighted_dual,
)
from gframes import core
from gframes.core import _cholesky_qr2_svd, is_g_onb, is_parseval
from gframes.errors import BadPartition, NonFinite, NotAFrame, ShapeMismatch
from gframes.kernel import frobenius_norm, operator_norm
from gframes.sampling import (
    bessel_perturb_instance,
    bijection_instance,
    mu_perturb_instance,
    random_coisometry,
    random_deficient,
    random_g_onb,
    random_g_riesz,
    random_gframe,
    random_isometry,
    random_unitary,
)
from gframes.selftest import random_partition
from gframes.tolerances import TAU_CLASS, TAU_RANK


# -- frame operator --


def test_frame_operator_identity():
    assert np.allclose(frame_operator(identity_gframe(2)), np.eye(2))


def test_frame_operator_diagonal():
    frame = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]])))
    assert np.allclose(frame_operator(frame), np.diag([1.0, 4.0]))


def test_frame_operator_blockwise_oracle():
    # oracle: the definition S = sum_i Lambda_i* Lambda_i, one block at a time
    rng = np.random.default_rng(19)
    for partition in [(2, 1, 3)] * 50 + [(1,) * 200] * 5:
        frame = random_gframe(rng, 4, partition)
        oracle = sum(b.conj().T @ b for b in frame.blocks)
        assert np.max(np.abs(frame_operator(frame) - oracle)) <= 1e-12


# -- bounds --


def test_frame_bounds_identity():
    b = frame_bounds(identity_gframe(2))
    assert b.lower == pytest.approx(1.0)
    assert b.upper == pytest.approx(1.0)
    assert b.classification is FrameClass.PARSEVAL


def test_frame_bounds_witness_oracle():
    # the definitional inequality holds on 10^4 random unit vectors and
    # both bounds are attained by frame-operator eigenvectors
    rng = np.random.default_rng(29)
    frame = random_gframe(rng, 5, (2, 2, 2))
    b = frame_bounds(frame)
    t = frame.analysis_matrix()
    samples = complex_gaussian(rng, 10_000, 5)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    energies = np.linalg.norm(samples @ t.T, axis=1) ** 2
    assert np.all(energies >= b.lower - 1e-9)
    assert np.all(energies <= b.upper + 1e-9)
    eigs, vecs = np.linalg.eigh(frame_operator(frame))
    low_energy = float(np.linalg.norm(t @ vecs[:, 0]) ** 2)
    high_energy = float(np.linalg.norm(t @ vecs[:, -1]) ** 2)
    assert abs(low_energy - b.lower) <= 1e-6 * (1 + b.lower)
    assert abs(high_energy - b.upper) <= 1e-6 * (1 + b.upper)


def test_tight_but_not_parseval():
    frame = scale_blocks(identity_gframe(3), [2.0, 2.0, 2.0])
    b = frame_bounds(frame)
    assert b.classification is FrameClass.TIGHT
    assert b.lower == pytest.approx(4.0)


def test_deficient_family_is_bessel_only():
    rng = np.random.default_rng(31)
    frame = random_deficient(rng, 4, (2, 3))
    b = frame_bounds(frame)
    assert b.lower <= TAU_RANK
    assert b.classification is FrameClass.BESSEL_ONLY


# -- classification --


def test_classify_identity_all_true():
    rep = classify(identity_gframe(2))
    assert rep.is_g_bessel and rep.is_g_frame and rep.is_g_complete
    assert rep.is_g_riesz and rep.is_g_onb
    assert rep.is_parseval and rep.is_tight
    assert rep.bounds.lower == pytest.approx(1.0)
    assert rep.riesz_bounds == pytest.approx((1.0, 1.0))


def test_classify_overcomplete():
    # three 1-row blocks on C^2: complete frame, but sum(d_i) = 3 > 2
    frame = GFrame(
        2,
        (
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
            np.array([[1.0, 1.0]]) / np.sqrt(2),
        ),
    )
    rep = classify(frame)
    assert rep.is_g_frame
    assert rep.is_g_complete
    assert not rep.is_g_riesz
    assert not rep.is_g_onb
    assert rep.riesz_bounds is None


def test_classify_onb_definitional():
    # <Lambda_i* g, Lambda_j* h> = delta_ij <g, h> on random block vectors
    rng = np.random.default_rng(37)
    frame = random_g_onb(rng, 5, (2, 3))
    rep = classify(frame)
    assert rep.is_g_onb and rep.is_g_riesz
    for _ in range(20):
        gs = [complex_gaussian(rng, b.shape[0], 1)[:, 0] for b in frame.blocks]
        hs = [complex_gaussian(rng, b.shape[0], 1)[:, 0] for b in frame.blocks]
        for i, bi in enumerate(frame.blocks):
            for j, bj in enumerate(frame.blocks):
                lhs = complex(np.vdot(bi.conj().T @ gs[i], bj.conj().T @ hs[j]))
                rhs = complex(np.vdot(gs[i], hs[j])) if i == j else 0.0
                assert abs(lhs - rhs) <= 1e-9


def test_riesz_but_not_onb():
    rng = np.random.default_rng(41)
    frame = random_g_riesz(rng, 4, (2, 2), sv_range=(0.5, 2.0))
    rep = classify(frame)
    assert rep.is_g_riesz
    assert not rep.is_g_onb
    sv = np.linalg.svd(frame.analysis_matrix(), compute_uv=False)
    assert rep.riesz_bounds == pytest.approx((sv[-1] ** 2, sv[0] ** 2))


def test_g_complete_cross_check():
    # complete: the sampled quadratic form never drops to the rank floor;
    # deficient: the smallest-eigenvalue witness exposes the kernel
    rng = np.random.default_rng(43)
    frame = random_gframe(rng, 4, (2, 2, 1))
    assert classify(frame).is_g_complete
    t = frame.analysis_matrix()
    samples = complex_gaussian(rng, 10_000, 4)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    assert np.min(np.linalg.norm(samples @ t.T, axis=1) ** 2) > TAU_RANK

    deficient = random_deficient(rng, 4, (2, 2, 1))
    assert not classify(deficient).is_g_complete
    _, vecs = np.linalg.eigh(frame_operator(deficient))
    witness = vecs[:, 0]
    assert np.linalg.norm(deficient.analysis_matrix() @ witness) ** 2 <= TAU_RANK


# -- canonical dual --


def test_canonical_dual_reconstruction():
    rng = np.random.default_rng(47)
    frame = random_gframe(rng, 5, (2, 2, 2))
    dual = canonical_dual(frame)
    assert verify_duality(frame, dual)
    assert verify_duality(dual, frame)


def test_canonical_dual_bounds_reciprocal():
    rng = np.random.default_rng(53)
    for _ in range(30):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        b = frame_bounds(frame)
        d = frame_bounds(canonical_dual(frame))
        assert abs(d.lower - 1 / b.upper) <= 1e-9 / b.upper
        assert abs(d.upper - 1 / b.lower) <= 1e-9 / b.lower


def test_canonical_dual_involution():
    rng = np.random.default_rng(59)
    frame = random_gframe(rng, 4, (1, 2, 2))
    again = canonical_dual(canonical_dual(frame))
    for a, b in zip(again.blocks, frame.blocks):
        assert frobenius_norm(a - b) <= 1e-9 * (1 + frobenius_norm(b))


def test_canonical_dual_rejects_deficient():
    rng = np.random.default_rng(61)
    with pytest.raises(NotAFrame):
        canonical_dual(random_deficient(rng, 3, (1, 2)))


@pytest.mark.parametrize("reject", [canonical_dual, decompose_two_parseval])
def test_not_a_frame_message_is_fixed_text(reject):
    # the smallest eigenvalue of a rank-deficient S is roundoff, so the
    # message names the rank floor rather than printing it
    messages = set()
    for seed in range(20):
        with pytest.raises(NotAFrame) as caught:
            reject(random_deficient(np.random.default_rng(seed), 6, (2, 1, 3)))
        messages.add(str(caught.value))
    assert len(messages) == 1
    assert "rank floor" in messages.pop()


# -- duality checks --


def test_verify_duality_identity():
    frame = identity_gframe(2)
    assert verify_duality(frame, frame)


def test_verify_duality_rejects_scaled():
    frame = identity_gframe(2)
    doubled = scale_blocks(frame, [2.0, 2.0])
    assert not verify_duality(frame, doubled)
    assert duality_defect(frame, doubled) == pytest.approx(np.sqrt(2))


# -- induced frames (the bridge) --


def test_induced_identity():
    vframe = induced_frame(identity_gframe(2))
    assert np.allclose(vframe.vectors, np.eye(2))
    assert vframe.indices == ((0, 0), (1, 0))


def test_vector_frame_order_check_matches_pairwise_loop():
    # reference: the tuple comparison of consecutive (block, row) pairs
    rng = np.random.default_rng(61)
    vectors = np.eye(3)
    for _ in range(300):
        idx = tuple(map(tuple, rng.integers(0, 3, (3, 2)).tolist()))
        if all(idx[j] < idx[j + 1] for j in range(2)):
            assert VectorFrame(3, vectors, idx).indices == idx
        else:
            with pytest.raises(ShapeMismatch, match="strictly increasing"):
                VectorFrame(3, vectors, idx)
    vframe = VectorFrame(3, vectors, np.array([[0, 0], [0, 1], [2, 0]]))
    assert vframe.indices == ((0, 0), (0, 1), (2, 0))
    assert all(type(k) is int for pair in vframe.indices for k in pair)
    with pytest.raises(ShapeMismatch, match="2 index pairs for 3 vectors"):
        VectorFrame(3, vectors, ((0, 0), (0, 1)))


def test_vector_frame_round_trip_partitions():
    vframe = induced_frame(identity_gframe(2))
    two_blocks = gframe_from_vector_frame(vframe, [1, 1])
    assert np.allclose(two_blocks.blocks[0], [[1.0, 0.0]])
    one_block = gframe_from_vector_frame(vframe, [2])
    assert np.allclose(one_block.blocks[0], np.eye(2))


def test_bridge_frame_operator_coincides():
    # direct summation oracle: sum of psi psi* over all induced vectors
    rng = np.random.default_rng(67)
    for _ in range(30):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        vframe = induced_frame(frame)
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for psi in vframe.vectors:
            acc += np.outer(psi, psi.conj())
        s = frame_operator(frame)
        assert np.max(np.abs(s - acc)) <= 1e-12
        assert np.max(np.abs(s - vector_frame_operator(vframe))) <= 1e-12


def test_bridge_classification_transfers():
    rng = np.random.default_rng(71)
    for _ in range(30):
        dim, partition = random_partition(rng)
        frame = random_gframe(rng, dim, partition)
        flat = gframe_from_vector_frame(induced_frame(frame), [1] * sum(partition))
        rep, flat_rep = classify(frame), classify(flat)
        assert rep.is_g_frame == flat_rep.is_g_frame
        assert rep.is_g_complete == flat_rep.is_g_complete
        assert rep.is_g_riesz == flat_rep.is_g_riesz
        assert rep.is_g_onb == flat_rep.is_g_onb
        assert abs(rep.bounds.lower - flat_rep.bounds.lower) <= 1e-12
        assert abs(rep.bounds.upper - flat_rep.bounds.upper) <= 1e-12


@given(st.integers(0, 2**31 - 1))
def test_bridge_round_trip_exact(seed):
    rng = np.random.default_rng(seed)
    dim, partition = random_partition(rng)
    frame = random_gframe(rng, dim, partition)
    regrouped = gframe_from_vector_frame(induced_frame(frame), partition)
    for a, b in zip(regrouped.blocks, frame.blocks):
        assert np.array_equal(a, b)


def test_rebasing_invariance():
    # Thm 1.1 statements do not depend on the basis chosen in each H_i:
    # rotating block outputs preserves S, bounds and classification
    rng = np.random.default_rng(73)
    frame = random_gframe(rng, 4, (2, 3, 1))
    rotated = GFrame(
        4,
        tuple(random_unitary(rng, b.shape[0]) @ b for b in frame.blocks),
    )
    assert np.max(np.abs(frame_operator(frame) - frame_operator(rotated))) <= 1e-12
    rep, rot = classify(frame), classify(rotated)
    assert rep.is_g_frame == rot.is_g_frame
    assert rep.is_g_riesz == rot.is_g_riesz
    assert rep.is_g_onb == rot.is_g_onb


# -- plumbing --


def test_scale_blocks_scalar_square_law():
    rng = np.random.default_rng(79)
    frame = random_gframe(rng, 3, (2, 2))
    b = frame_bounds(frame)
    scaled = frame_bounds(scale_blocks(frame, [3.0, 3.0]))
    assert scaled.lower == pytest.approx(9 * b.lower)
    assert scaled.upper == pytest.approx(9 * b.upper)


def test_from_stacked_rejects_bad_partition():
    with pytest.raises(BadPartition):
        GFrame.from_stacked(np.ones((3, 2)), [2, 2])
    with pytest.raises(BadPartition):
        GFrame.from_stacked(np.ones((3, 2)), [3, 0])
    with pytest.raises(BadPartition):
        gframe_from_vector_frame(induced_frame(identity_gframe(2)), [3])
    # sizes must be integers: no float, digit string or bool is cast to one
    for partition in ([1.5, 3.7], ["1", "3"], [True, 3]):
        with pytest.raises(BadPartition):
            GFrame.from_stacked(np.ones((4, 2)), partition)
    assert GFrame.from_stacked(np.ones((4, 2)), np.array([1, 3])).partition == (1, 3)


def test_from_stacked_copies_caller_input():
    a = complex_gaussian(np.random.default_rng(107), 5, 3)
    frame = GFrame.from_stacked(a, (2, 3))
    t = frame.analysis_matrix()
    assert a.flags.writeable and not t.flags.writeable and not np.shares_memory(a, t)
    before = t.copy()
    a[0, 0] = 7.0
    assert np.array_equal(t, before)


def test_adopted_products_still_reject_non_finite_entries():
    frame = random_gframe(np.random.default_rng(109), 3, (1, 2, 1))
    cases = [(frame, [bad, 1.0, 1.0]) for bad in (np.inf, np.nan)]
    # an infinite factor on a block with zero entries would form inf * 0
    cases.append((identity_gframe(2), [np.inf, 1.0]))
    for base, factors in cases:
        with pytest.raises(NonFinite, match="^analysis matrix contains NaN or infinite entries$"):
            scale_blocks(base, factors)


def test_overflowing_frame_operator_is_a_typed_error():
    # T is finite, but S = T* T overflows; under -W error the matmul
    # warning must not escape either
    frame = scale_blocks(random_gframe(np.random.default_rng(1), 3, (1, 2, 1)), [1e160] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (frame_operator, classify):
            with pytest.raises(NonFinite, match="^frame operator S = T\\* T overflows"):
                read(frame)


def test_library_products_are_adopted_not_copied(monkeypatch):
    # a dual, rescaling, decomposition component, coisometry image or
    # inversion companion keeps the product it is computed from: no copy
    # and no second partition check through from_stacked
    rng = np.random.default_rng(113)
    frame = random_gframe(rng, 4, (2, 1, 2), label="f")
    onb = random_g_onb(rng, 4, (2, 2))
    k = random_coisometry(rng, 3, 4)
    instances = [
        (invert_via_bijection, bijection_instance(rng, 4, (2, 1, 1))),
        (invert_bessel_perturb, bessel_perturb_instance(rng, 4, (2, 1, 1))),
        (invert_mu_perturb, mu_perturb_instance(rng, 4, (2, 1, 1))),
    ]
    original = GFrame.from_stacked.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(GFrame, "from_stacked", classmethod(counted))
    made = [
        canonical_dual(frame),
        scale_blocks(frame, [2.0, 1j, 0.5]),
        weighted_dual(frame, [2.0, 1.0, 0.5]),
        *decompose_two_parseval(frame).components,
        coisometry_image(onb, k),
    ]
    for invert, args in instances:
        invert(*args)
    assert calls == []
    assert all(not f.analysis_matrix().flags.writeable for f in made)


def test_gframe_validates_blocks():
    with pytest.raises(ShapeMismatch):
        GFrame(2, (np.ones((1, 3)),))
    with pytest.raises(ShapeMismatch):
        GFrame(2, ())
    with pytest.raises(ShapeMismatch):
        scale_blocks(identity_gframe(2), [1.0])


def test_gframe_h_dim_is_a_python_int_and_never_a_bool():
    frame = GFrame(np.int64(3), (np.eye(3),))
    assert frame.h_dim == 3 and type(frame.h_dim) is int
    assert frame == GFrame(3, (np.eye(3),))
    for bad in (True, np.True_, 3.0, "3", 0):
        with pytest.raises(ShapeMismatch, match="h_dim must be a positive integer"):
            GFrame(bad, (np.ones((1, 1)),))


def test_gframe_names_the_failing_block():
    rng = np.random.default_rng(89)
    frame = random_gframe(rng, 5, [1, 2] * 1000)
    blocks = list(frame.blocks)
    for k in (0, 1234, 1999):
        bad = blocks[k].copy()
        bad[-1, 2] = np.nan
        with pytest.raises(NonFinite, match=f"^block {k} "):
            GFrame(5, tuple(blocks[:k] + [bad] + blocks[k + 1:]))
    bad_blocks = {
        "ndim 1": (np.ones(5), "must be 2-dimensional, got ndim=1"),
        "ndim 3": (np.ones((2, 5, 1)), "must be 2-dimensional, got ndim=3"),
        "no rows": (np.ones((0, 5)), "must be non-empty, got shape (0, 5)"),
        "no columns": (np.ones((2, 0)), "must be non-empty, got shape (2, 0)"),
        "columns": (np.ones((2, 4)), "has 4 columns, expected h_dim=5"),
    }
    for bad, message in bad_blocks.values():
        with pytest.raises(ShapeMismatch) as err:
            GFrame(5, tuple(blocks[:1234] + [bad] + blocks[1235:]))
        assert str(err.value) == f"block 1234 {message}"
    # with two different defects, the first block is named, whichever defect it has
    for first, later in [("columns", "ndim 1"), ("ndim 3", "no columns"), ("no rows", "ndim 3")]:
        two = list(blocks)
        two[7], two[1234] = bad_blocks[first][0], bad_blocks[later][0]
        with pytest.raises(ShapeMismatch) as err:
            GFrame(5, tuple(two))
        assert str(err.value) == f"block 7 {bad_blocks[first][1]}"


def test_blocks_constructor_matches_from_stacked_bitwise():
    rng = np.random.default_rng(97)
    frame = random_gframe(rng, 7, [1, 2, 3] * 100)
    t = frame.analysis_matrix()
    rebuilt = GFrame(7, tuple(frame.blocks)).analysis_matrix()
    assert rebuilt.dtype == t.dtype and rebuilt.tobytes() == t.tobytes()
    assert GFrame(7, tuple(frame.blocks)) == GFrame.from_stacked(t, frame.partition)


def test_gframe_equality_and_hash():
    rng = np.random.default_rng(101)
    frame = random_gframe(rng, 4, (2, 1, 3), label="f")
    twin = GFrame.from_stacked(frame.analysis_matrix().copy(), frame.partition, label="f")
    frame_bounds(frame)  # a cached spectrum on one side changes nothing
    assert frame == twin and hash(frame) == hash(twin)
    assert len({frame, twin}) == 1
    changed = frame.analysis_matrix().copy()
    changed[4, 3] += 1e-12
    assert frame != GFrame.from_stacked(changed, frame.partition, label="f")
    assert frame != GFrame.from_stacked(frame.analysis_matrix(), (3, 3), label="f")
    assert frame != GFrame.from_stacked(frame.analysis_matrix(), frame.partition)


@pytest.mark.parametrize("factor, parseval", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_is_parseval_boundary(factor, parseval):
    # T = diag(sqrt(1 + e)), so ||S - I||_F = ||e||_2, here TAU_CLASS
    # times `factor`. S is a multiple of I on both sides, so the label is
    # PARSEVAL exactly where the Parseval test holds, and TIGHT past it
    e = np.full(4, TAU_CLASS * factor / 2)
    frame = GFrame.from_stacked(np.diag(np.sqrt(1 + e)), (1, 3))
    assert is_parseval(frame) is parseval and is_g_onb(frame) is parseval
    assert frame_bounds(frame).classification is (
        FrameClass.PARSEVAL if parseval else FrameClass.TIGHT)
    tall = GFrame.from_stacked(np.vstack([np.diag(np.sqrt(1 + e)), np.zeros((1, 4))]), (2, 3))
    assert is_parseval(tall) is parseval and not is_g_onb(tall)


def test_parseval_but_not_tight_by_bounds_is_parseval():
    # ||S - I||_F = 0.99 TAU_CLASS, yet B - A = 1.4 TAU_CLASS: the Parseval
    # test decides, and Parseval implies tight
    e = np.array([0.7, -0.7]) * TAU_CLASS
    rep = classify(GFrame.from_stacked(np.diag(np.sqrt(1 + e)), (1, 1)))
    assert rep.bounds.classification is FrameClass.PARSEVAL
    assert rep.is_tight and rep.is_parseval and rep.is_g_onb


@given(st.lists(st.floats(-2 * TAU_CLASS, 2 * TAU_CLASS), min_size=1, max_size=6),
       st.booleans())
def test_one_parseval_verdict_near_the_identity(e, tall):
    # T = diag(sqrt(1 + e)), with one zero row appended when `tall`:
    # the label and `is_parseval` are one verdict, and the lattice holds
    t = np.diag(np.sqrt(1 + np.array(e)))
    if tall:
        t = np.vstack([t, np.zeros((1, len(e)))])
    frame = GFrame.from_stacked(t, (1,) * t.shape[0])
    rep = classify(frame)
    assert (frame_bounds(frame).classification is FrameClass.PARSEVAL) is is_parseval(frame)
    assert rep.is_g_frame >= rep.is_tight >= rep.is_parseval >= rep.is_g_onb
    assert rep.is_g_onb is is_g_onb(frame)


@pytest.mark.parametrize("make, dim, partition, reads", [
    (random_g_onb, 48, (16, 16, 16), 1),  # the label's one read of ||S - I||_F
    (random_g_riesz, 6, (3, 3), 0),  # the eigenvalues rule Parseval out
])
def test_classify_reads_the_parseval_verdict_at_most_once(monkeypatch, make, dim, partition,
                                                          reads):
    frame = make(np.random.default_rng(0), dim, partition)
    calls = []
    honest = core._parseval_margin
    monkeypatch.setattr(core, "_parseval_margin", lambda s: calls.append(s) or honest(s))
    classify(frame)
    assert len(calls) == reads


def test_spectrum_is_computed_once_and_read_only(monkeypatch):
    rng = np.random.default_rng(103)
    frame = random_gframe(rng, 5, (2, 3, 2, 4))
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kw):
            calls.append(_name)
            return _original(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    # bounds and classification share one eigvalsh of S; the dual adds the
    # 11-row T's one direct SVD
    s = frame_operator(frame)
    b = frame_bounds(frame)
    rep = classify(frame)
    assert calls == ["eigvalsh"]
    dual = canonical_dual(frame)
    canonical_dual(frame)
    assert calls == ["eigvalsh", "svd"]
    assert frame_operator(frame) is s
    assert frame_bounds(frame) is b and rep.bounds is b
    assert frame_bounds(dual).upper == pytest.approx(1 / b.lower)
    with pytest.raises(ValueError):
        s[0, 0] = 0.0


def test_bounds_do_not_depend_on_call_order():
    # the bounds always read eigvalsh(S), never the SVD that a dual or an
    # inverse of S computed first; the two differ in the last bits
    rng = np.random.default_rng(115)
    for partition in ((2, 3, 2), (2, 3)):  # tall, then square
        weights, frame, companion = mu_perturb_instance(rng, 5, partition)
        fresh = GFrame.from_stacked(frame.analysis_matrix(), partition)
        twin = GFrame.from_stacked(frame.analysis_matrix(), partition)
        _ = twin._svd  # the SVD runs first
        canonical_dual(twin)
        invert_mu_perturb(weights, twin, companion)
        assert frame_bounds(twin) == frame_bounds(fresh)


def _tall_frame(rng, rows, singular_values):
    d = len(singular_values)
    t = (random_isometry(rng, rows, d) * singular_values) @ random_unitary(rng, d).conj().T
    return GFrame.from_stacked(t, (rows,))


def test_tall_svd_from_the_spectrum_is_as_accurate_as_a_direct_svd():
    # more than _DIRECT_SVD_ROWS rows, so the SVD is CholeskyQR2's;
    # sigma_min = 1.1e-5 keeps the smallest eigenvalue of S above TAU_RANK
    rng = np.random.default_rng(111)
    for kappa in (1e2, 1e4, 9e4):
        for rows, d in ((260, 6), (400, 16)):
            frame = _tall_frame(rng, rows, np.geomspace(1.1e-5 * kappa, 1.1e-5, d))
            t = frame.analysis_matrix()
            assert rows > core._DIRECT_SVD_ROWS and frame_bounds(frame).is_frame
            assert _cholesky_qr2_svd(t, frame_operator(frame)) is not None
            u, s, vh = frame._svd
            assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-13
            assert operator_norm((u * s) @ vh - t) <= 1e-13 * operator_norm(t)
            direct = np.linalg.svd(t, compute_uv=False)
            assert np.all(np.abs(s - direct) <= 1e-10 * direct)


def _svd_route(frame) -> str:
    if not frame_bounds(frame).is_frame:
        return "singular"
    if _cholesky_qr2_svd(frame.analysis_matrix(), frame_operator(frame)) is None:
        return "cholesky failed"
    return "cholesky qr2"


def test_tall_svd_stays_accurate_when_the_spectrum_cannot_carry_it():
    # k(S) = 1e16, near 1/eps, with more than _DIRECT_SVD_ROWS rows: the
    # computed smallest eigenvalue of S may fall below the rank floor, or
    # a Cholesky of CholeskyQR2 may fail; either way T is factored
    # directly, as accurately as at moderate k(S)
    rng = np.random.default_rng(113)
    paths = set()
    for _ in range(20):
        frame = _tall_frame(rng, 300, np.array([1e7, 1.0, 1e-1]))
        t = frame.analysis_matrix()
        paths.add(_svd_route(frame))
        u, s, vh = frame._svd
        assert frobenius_norm(u.conj().T @ u - np.eye(3)) <= 1e-13
        assert frobenius_norm((u * s) @ vh - t) <= 1e-13 * frobenius_norm(t)
    assert paths == {"singular", "cholesky failed", "cholesky qr2"}


def test_pickle_and_deepcopy_keep_the_frame():
    rng = np.random.default_rng(107)
    frame = random_gframe(rng, 4, (2, 2, 1), label="f")
    bounds = frame_bounds(frame)
    for twin in (pickle.loads(pickle.dumps(frame)), copy.deepcopy(frame)):
        assert twin == frame and "_bounds" not in vars(twin)  # caches are not copied
        assert frame_bounds(twin) == bounds
        assert not twin.analysis_matrix().flags.writeable
        assert all(np.shares_memory(b, twin.analysis_matrix()) for b in twin.blocks)


def test_vector_frame_value_semantics():
    vf = induced_frame(random_gframe(np.random.default_rng(109), 3, (2, 2)))
    changed = vf.vectors.copy()
    changed[1, 2] += 1e-9
    check_value_object(
        vf, VectorFrame(3, vf.vectors.copy(), vf.indices), VectorFrame(3, changed, vf.indices)
    )


def test_blocks_are_frozen():
    frame = identity_gframe(2)
    with pytest.raises(ValueError):
        frame.blocks[0][0, 0] = 5.0
    t = frame.analysis_matrix()
    with pytest.raises(ValueError):
        t[0, 0] = 5.0
    assert all(np.shares_memory(b, t) for b in frame.blocks)


def test_quadratic_form_matches_block_sum():
    rng = np.random.default_rng(83)
    frame = random_gframe(rng, 4, (2, 2, 3))
    s = frame_operator(frame)
    for _ in range(50):
        f = random_unit(rng, 4)
        direct = sum(float(np.linalg.norm(b @ f) ** 2) for b in frame.blocks)
        assert direct == pytest.approx(float(np.vdot(f, s @ f).real), abs=1e-10)
