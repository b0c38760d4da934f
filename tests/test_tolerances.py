"""The tolerance decision primitive at its boundaries."""

import numpy as np

from gframes.tolerances import TAU_CLASS, TAU_DUAL, TAU_RANK, TAU_RECON, Margin


def test_rank_floor_fails_at_the_floor_and_holds_just_above():
    assert not Margin.above_floor(TAU_RANK)
    assert not Margin.above_floor(0.0)
    above = Margin.above_floor(np.nextafter(TAU_RANK, 1))
    assert above and above.threshold == TAU_RANK


def test_defects_hold_at_exactly_their_threshold():
    assert Margin.defect(TAU_DUAL, TAU_DUAL)
    assert not Margin.defect(np.nextafter(TAU_DUAL, 1), TAU_DUAL)
    scale = 1.0 + 12.345
    assert Margin.defect(TAU_RECON * scale, TAU_RECON, scale)
    assert not Margin.defect(np.nextafter(TAU_RECON * scale, 1), TAU_RECON, scale)


def test_relative_threshold_is_tau_times_scale_bit_for_bit():
    rng = np.random.default_rng(5)
    for scale in [1.0, *rng.uniform(0.0, 1e6, 50), np.float64(3.7)]:
        assert Margin.defect(0.0, TAU_CLASS, scale).threshold == TAU_CLASS * scale
    # the default scale makes the absolute kind: tau * 1.0 is tau
    assert Margin.defect(0.0, TAU_CLASS).threshold == TAU_CLASS


def test_margins_keep_their_value_and_are_python_bools():
    for margin in (Margin.defect(np.float64(0.5), 1.0), Margin.defect(np.float64(2.0), 1.0),
                   Margin.above_floor(np.float64(1.0)), Margin.above_floor(np.float64(0.0))):
        assert type(margin.__bool__()) is bool and type(margin.holds) is bool
    assert Margin.defect(np.float64(0.5), 1.0).value == 0.5


def test_nan_never_holds():
    assert not Margin.defect(float("nan"), TAU_DUAL)
    assert not Margin.above_floor(np.nan)
