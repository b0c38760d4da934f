#!/usr/bin/env python3
"""Run every decomposition on freshly sampled inputs and tabulate residuals.

Square (g-Riesz) inputs admit all three averaging splits plus the
identity-shift form; arbitrary g-frames admit the two-Parseval split;
g-ONBs feed the coisometry image. Residuals are relative to 1 + ||T||_F.
The script exits 1 if a coisometry image is not a g-frame.
"""

import argparse

import numpy as np

from gframes import (
    classify,
    coisometry_image,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
    frame_bounds,
    frame_operator,
)
from gframes.kernel import frobenius_norm
from gframes.sampling import (
    random_coisometry,
    random_g_onb,
    random_g_riesz,
    random_gframe,
)


def describe(dec):
    scalars = ", ".join(f"{abs(a):.4f}" for a in dec.scalars)
    kinds = "+".join(k.value for k in dec.component_kinds)
    return scalars, kinds, dec.reconstruction_residual


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--dim", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        riesz = random_g_riesz(rng, args.dim, [2] * (args.dim // 2))
        for name, op in [
            ("three-onb", decompose_three_gonb),
            ("two-onb", decompose_two_gonb_combo),
            ("onb-plus-riesz", decompose_gonb_plus_griesz),
        ]:
            scalars, kinds, residual = describe(op(riesz))
            rows.append((trial, "g-riesz", name, scalars, kinds, residual))

        frame = random_gframe(rng, args.dim, [2, args.dim, 1])
        scalars, kinds, residual = describe(decompose_two_parseval(frame))
        rows.append((trial, "g-frame", "two-parseval", scalars, kinds, residual))

        onb = random_g_onb(rng, args.dim, [1] * args.dim)
        k = random_coisometry(rng, args.dim - 1, args.dim)
        image = coisometry_image(onb, k)
        drift = frobenius_norm(frame_operator(image) - np.eye(image.h_dim))
        kind = frame_bounds(image).classification.value
        rows.append((trial, "g-onb", "coisometry", "-", kind, drift))
        if not classify(image).is_g_frame:
            print(f"trial {trial}: the coisometry image is not a g-frame")
            return 1

    print(f"{'trial':>5} {'input':>8} {'form':>15} {'|scalars|':>24} "
          f"{'components':>24} {'residual':>10}")
    for trial, kind, form, scalars, kinds, residual in rows:
        print(f"{trial:>5} {kind:>8} {form:>15} {scalars:>24} "
              f"{kinds:>24} {residual:>10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
