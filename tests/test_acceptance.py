"""Acceptance gate: one pass/fail verdict per shipped guarantee.

Each criterion runs its entries of the property corpus
`gframes.selftest.CHECKS` at full trial counts and records a verdict line
that the terminal summary reprints. Keep these independent: a failure
here means the library broke a documented contract, not that a unit test
got unlucky.
"""

import io
import subprocess
import sys
import time

import numpy as np

from conftest import record_verdict
from gframes import selftest
from gframes.selftest import CHECKS, CheckFailed

ENTRIES = {name: (check, trials) for name, check, trials in CHECKS}

# criterion number -> (seed, the corpus entries it runs in order)
CRITERIA = {
    1: (101, ["core induced-frame bridge"]),
    2: (102, ["core canonical dual"]),
    3: (103, ["decompositions reconstruct", "coisometry image is Parseval",
              "two-g-ONB combinations are g-Riesz"]),
    4: (104, ["multiplier flattening and norm bound"]),
    5: (105, ["certified inversions"]),
    6: (106, ["invertible multiplier lower bound"]),
    7: (107, ["controlled frames", "controlled equivalence"]),
    8: (108, ["weighted frames", "weight extraction", "weighted equivalence"]),
    9: (109, ["kernel unitary averages"]),
    10: (110, ["instance round-trip"]),
}


def gate(number, description, failures=()):
    """Run criterion `number`'s corpus entries at full count; record its verdict."""
    seed, names = CRITERIA[number]
    rng = np.random.default_rng(seed)
    failures = list(failures)
    for name in names:
        check, trials = ENTRIES[name]
        try:
            check(rng, trials)
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
    assert record_verdict(not failures, number, description), failures


def test_every_check_is_gated_once_and_selftested(monkeypatch):
    gated = [name for _, names in CRITERIA.values() for name in names]
    assert len(ENTRIES) == len(CHECKS)
    assert sorted(gated) == sorted(ENTRIES)
    ran = {}

    def recorder(name):
        return lambda rng, trials: ran.setdefault(name, trials)

    monkeypatch.setattr(selftest, "CHECKS",
                        [(name, recorder(name), trials) for name, _, trials in CHECKS])
    assert selftest.run_selftest(stream=io.StringIO())
    assert set(ran) == set(ENTRIES)
    assert min(ran.values()) >= 1


def test_criterion_1_bridge_to_induced_vector_frame():
    gate(1, "frame operator matches the induced vector frame within 1e-12, "
            "all five classification predicates transfer and g-ONB => Parseval => "
            "tight => g-frame holds on both sides (1000 trials)")


def test_criterion_2_canonical_dual_bounds_are_reciprocal():
    gate(2, "canonical dual bounds equal (1/B, 1/A) within 1e-9 relative and "
            "the pair is dual (500 trials); at k(S) = 1e6, 1e8 and 1e9 with "
            "||T|| = 1 the dual of a tall and of a square frame verifies, P3.4 "
            "accepts it and its bounds are (1/B, 1/A) within 1e-6 relative "
            "(500 frames of each)")


def test_criterion_3_decompositions_reconstruct_and_certify():
    gate(3, "all five decompositions reconstruct within 1e-9 with certified "
            "components (500 each); scaled two-ONB combinations with "
            "0<|a|<|b| are g-Riesz (200 pairs)")


def test_criterion_4_multiplier_flattening_and_norm_bound():
    gate(4, "block multiplier equals the flattened vector multiplier within "
            "1e-12 and respects sqrt(B B')*max|m| (1000 trials)")


def test_criterion_5_certified_inversions():
    gate(5, "all six inversion routes: residual <= 1e-8, bracket contains the "
            "direct inverse norm, inverse within 1e-7, every series route's "
            "partial sums beat the geometric tail at every K (200 instances each); "
            "at k(S) = 1e6, 1e8 and 1e9 with ||T|| = 1, tall and square in turn, "
            "P3.3's inverse matches +/-G^-1 R^-1 R^-* from an independent QR of "
            "the scaled T within 1e-10 relative (200 instances)")


def test_criterion_6_invertible_multiplier_lower_bound():
    gate(6, "1/(B'*||M^-1||^2) lower-bounds the weighted family's optimal bound "
            "on invertible multipliers (500 trials)")


def test_criterion_7_controlled_frame_criteria():
    gate(7, "commutation defect <= 1e-8 on certified controlled instances, "
            "equivalence verdicts agree on 500 mixed instances, derived bound "
            "intervals contain the true spectra")


def test_criterion_8_weighted_family_suite():
    gate(8, "weighted bounds match the induced vector family within 1e-12, "
            "planted control weights are recovered within 1e-9, weighted duals "
            "verify at 1e-10 inside [a^2 A, b^2 B], the weight multiplier is a "
            "frame operator, and all six equivalence verdicts are unanimous "
            "(500 instances)")


def test_criterion_9_unitary_averaging():
    gate(9, "unitary pair/triple averages reconstruct within 1e-9 with unitarity "
            "defects <= 1e-10 (1000 contractions)")


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

    gate(10, "selftest exits 0 in under 60s, serialization round-trips 600 "
             "instances (100 of each kind) byte-identically, hypothesis "
             "violations exit 2 naming the inequality", failures)
