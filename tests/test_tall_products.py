"""The products with a tall T make no throwaway n x d copy.

numpy reports its data buffers to tracemalloc, so the peak traced
allocation of a call, divided by the size of T, counts the n x d arrays
the call holds at once, its outputs included. BLAS workspace is not
traced, and it does not grow with n.
"""

import tracemalloc

import numpy as np
import pytest

from gframes import core, decompositions, kernel, multipliers
from gframes.sampling import random_gframe


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(4117)
    f = random_gframe(rng, 32, rng.integers(1, 3, 2000).tolist())
    f._svd  # the spectrum and the SVD are cached before any call is measured
    return f


def peak_arrays(call, frame) -> float:
    """The peak allocation while `call()` runs, in arrays the size of T."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / frame.analysis_matrix().nbytes
    finally:
        tracemalloc.stop()


def test_gram_and_frame_operator_copy_nothing_tall(frame):
    t = frame.analysis_matrix()
    fresh = core.GFrame.from_stacked(t, frame.partition)  # S not yet computed
    assert peak_arrays(lambda: core.frame_operator(fresh), frame) < 0.5
    assert peak_arrays(lambda: kernel.gram(t), frame) < 0.5


def test_multiplier_makes_one_temporary(frame):
    w = np.linspace(0.5, 2.0, frame.n_blocks)
    assert peak_arrays(lambda: multipliers.multiplier(w, frame, frame), frame) < 1.5


def test_unitary_pair_allocates_its_two_outputs(frame):
    u, s, vh = frame._svd
    assert peak_arrays(lambda: kernel._unitary_pair(u, s / s[0], vh), frame) < 2.5


def test_certified_residual_in_one_buffer(frame):
    # the components are inputs here: only the residual buffer is counted
    u, s, vh = frame._svd
    components = kernel._unitary_pair(u, s / s[0], vh)
    a = float(s[0]) / 2.0
    kinds = (decompositions.ComponentKind.NORMALIZED_TIGHT,) * 2
    peak = peak_arrays(lambda: decompositions._certified(a, components, kinds, frame), frame)
    assert peak < 1.5
