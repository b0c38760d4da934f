#!/usr/bin/env python3
"""Interpolate a control operator away from commutation and watch both
sides of the controlled-frame criterion flip together.

C(t) = (1-t)*C_comm + t*C_rand blends a positive polynomial in S with an
unrelated positive operator. At t=0 the pair commutes and the controlled
form certifies; for t>0 the commutation defect grows and both verdicts
drop to "no" in the same row. A disagreement would falsify the
equivalence the library promises, and the script exits 1 on it.
"""

import argparse

import numpy as np

from gframes import (
    ControlOperator,
    controlled_bounds,
    controlled_equivalence,
    verify_commutation,
)
from gframes.sampling import random_control_commuting, random_gframe, random_unitary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--partition", default="2,3")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=9)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    partition = tuple(int(p) for p in args.partition.split(","))
    frame = random_gframe(rng, args.dim, partition)
    commuting = random_control_commuting(rng, frame).matrix
    u = random_unitary(rng, args.dim)
    unrelated = (u * rng.uniform(0.5, 2.0, args.dim)) @ u.conj().T

    print(f"{'t':>6} {'defect':>12} {'form s.a.':>10} "
          f"{'controlled':>11} {'g-frame side':>13} {'agree':>6}")
    disagreements = 0
    for t in np.linspace(0.0, 1.0, args.steps):
        control = ControlOperator((1.0 - t) * commuting + t * unrelated)
        defect = verify_commutation(frame, control).defect
        cb = controlled_bounds(frame, control)
        lhs, rhs = controlled_equivalence(frame, control)
        disagreements += lhs != rhs
        print(f"{t:>6.3f} {defect:>12.3e} "
              f"{'yes' if cb.form_self_adjoint else 'no':>10} "
              f"{'yes' if lhs else 'no':>11} "
              f"{'yes' if rhs else 'no':>13} "
              f"{'yes' if lhs == rhs else 'NO':>6}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
