#!/usr/bin/env python3
"""Watch the certified Neumann inversion converge as weights drift.

For one random frame, weights are drawn at a growing fraction of the
critical threshold sqrt(A/B). Each row reports the contraction the
certificate recorded, how many series terms the tolerance demanded,
the measured error of the truncated inverse against a direct solve,
and the geometric tail the certificate promised. The measured column
must stay below the promised one at every fraction; the script exits 1 when it does not.
"""

import argparse

import numpy as np

from gframes import (
    canonical_dual,
    frame_bounds,
    invert_canonical_dual,
    multiplier,
)
from gframes.kernel import operator_norm
from gframes.sampling import random_gframe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--partition", default="2,3")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument(
        "--fractions", default="0.1,0.3,0.5,0.7,0.9,0.97,0.99,0.999",
        help="comma-separated fractions of the critical threshold",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    partition = tuple(int(p) for p in args.partition.split(","))
    frame = random_gframe(rng, args.dim, partition)
    bounds = frame_bounds(frame)
    threshold = np.sqrt(bounds.lower / bounds.upper)
    dual = canonical_dual(frame)

    print(
        f"frame: d={args.dim} partition={list(partition)} "
        f"A={bounds.lower:.4f} B={bounds.upper:.4f} "
        f"critical lambda={threshold:.4f} tol={args.tol:g}"
    )
    print(f"{'fraction':>9} {'contraction':>12} {'terms':>6} "
          f"{'measured':>12} {'promised':>12}")
    violated = False
    for text in args.fractions.split(","):
        frac = float(text)
        lam = frac * threshold
        weights = 1.0 + rng.uniform(-lam, lam, frame.n_blocks)
        m_inv, cert = invert_canonical_dual(weights, frame, tol=args.tol)
        direct = np.linalg.inv(multiplier(weights, frame, dual))
        q = cert.hypothesis_values["contraction"]
        measured = operator_norm(direct - m_inv)
        promised = q ** cert.series_terms_for_tol / (1.0 - q)
        flag = "" if measured <= promised + 1e-12 else "  <-- VIOLATED"
        violated = violated or bool(flag)
        print(f"{frac:>9.3f} {q:>12.6f} {cert.series_terms_for_tol:>6} "
              f"{measured:>12.3e} {promised:>12.3e}{flag}")
    return 1 if violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
