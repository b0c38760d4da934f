"""Command-line front end.

Every command reads a JSON instance document (see io.py), runs one
library operation and emits either a human-readable summary or, with
--json, a machine-readable report. Exit codes: 0 success, 2 a checked
hypothesis failed (the message names the violated inequality), 3 bad
input (malformed file, schema violation, bad arguments), 1 anything
else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .controlled import (
    ControlOperator,
    controlled_bound_arithmetic,
    controlled_bounds,
    controlled_equivalence,
    verify_commutation,
    weight_from_control,
    weighted_bounds,
    weighted_dual,
    weighted_equivalence_suite,
)
from .core import (
    canonical_dual,
    classify,
    duality_defect,
    frame_bounds,
    scale_blocks,
)
from .decompositions import (
    coisometry_image,
    decompose_gonb_plus_griesz,
    decompose_three_gonb,
    decompose_two_gonb_combo,
    decompose_two_parseval,
)
from .errors import GFrameError, HypothesisError, InputError, SchemaError
from .io import (
    GENERATE_KINDS,
    InstanceFile,
    complex_pair,
    dump_instance,
    frame_document,
    generate,
    instance_digest,
    load_instance,
    matrix_document,
    serialize_instance,
)
from .kernel import operator_norm
from .multipliers import (
    invert_bessel_perturb,
    invert_canonical_dual,
    invert_dual_mu_perturb,
    invert_dual_neumann,
    invert_mu_perturb,
    invert_via_bijection,
    multiplier,
    multiplier_norm_bound,
)
from .tolerances import TAU_INV


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}j"


def _instance_inputs(inst: InstanceFile, path: str) -> dict:
    return {
        "path": path,
        "label": inst.label,
        "h_dim": inst.gframe.h_dim,
        "partition": list(inst.gframe.partition),
    }


def _require(value, field: str, hint: str):
    if value is None:
        raise SchemaError(f"$.{field}", f"this command needs {hint}")
    return value


def _ones(inst: InstanceFile) -> np.ndarray:
    return np.ones(inst.gframe.n_blocks)


def _weights_or_ones(inst: InstanceFile) -> np.ndarray:
    if inst.weights is None:
        return _ones(inst)
    return inst.weights.values


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


def _write_matrix_out(path: str, matrix) -> None:
    doc = {"schema_version": 1, "matrix": matrix_document(matrix)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- commands --------------------------------------------------------------


def _cmd_classify(args) -> int:
    inst = load_instance(args.infile)
    report = classify(inst.gframe)
    b = report.bounds
    out = {
        "operation": "classify",
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
        "bounds": {"lower": b.lower, "upper": b.upper},
        "classification": b.classification.value,
        "is_g_bessel": report.is_g_bessel,
        "is_g_frame": report.is_g_frame,
        "is_g_complete": report.is_g_complete,
        "is_g_riesz": report.is_g_riesz,
        "is_g_onb": report.is_g_onb,
        "is_tight": report.is_tight,
        "is_parseval": report.is_parseval,
        "riesz_bounds": list(report.riesz_bounds) if report.riesz_bounds else None,
    }
    flags = [
        name
        for name, on in [
            ("g-Bessel", report.is_g_bessel),
            ("g-frame", report.is_g_frame),
            ("g-complete", report.is_g_complete),
            ("g-Riesz", report.is_g_riesz),
            ("g-ONB", report.is_g_onb),
        ]
        if on
    ]
    lines = [
        f"label:       {inst.label or '-'}",
        f"h_dim:       {inst.gframe.h_dim}",
        f"partition:   {list(inst.gframe.partition)}",
        f"bounds:      A={b.lower:.9g}  B={b.upper:.9g}",
        f"class:       {b.classification.value}",
        f"properties:  {', '.join(flags)}",
    ]
    if report.riesz_bounds:
        lines.append(
            f"riesz:       C={report.riesz_bounds[0]:.9g}  D={report.riesz_bounds[1]:.9g}"
        )
    _emit(args, out, lines)
    return 0


def _cmd_dual(args) -> int:
    inst = load_instance(args.infile)
    dual = canonical_dual(inst.gframe)
    defect = duality_defect(inst.gframe, dual)
    bounds = frame_bounds(dual)
    if args.out:
        dump_instance(InstanceFile(gframe=dual), args.out)
    out = {
        "operation": "dual",
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
        "dual_bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "duality_defect": defect,
        "written": args.out,
    }
    lines = [
        f"dual bounds: A={bounds.lower:.9g}  B={bounds.upper:.9g}",
        f"defect:      {defect:.3e}",
    ]
    if args.out:
        lines.append(f"written:     {args.out}")
    _emit(args, out, lines)
    return 0


_DECOMPOSERS = {
    "three-onb": decompose_three_gonb,
    "two-onb": decompose_two_gonb_combo,
    "two-parseval": decompose_two_parseval,
    "onb-plus-riesz": decompose_gonb_plus_griesz,
}


def _cmd_decompose(args) -> int:
    inst = load_instance(args.infile)
    started = time.perf_counter()
    if args.form == "coisometry":
        k = _require(inst.coisometry, "coisometry", "a coisometry matrix")
        image = coisometry_image(inst.gframe, k)
        elapsed = time.perf_counter() - started
        bounds = frame_bounds(image)
        if args.out:
            dump_instance(InstanceFile(gframe=image), args.out)
        out = {
            "operation": "decompose coisometry",
            "instance_digest": instance_digest(inst),
            "inputs": _instance_inputs(inst, args.infile),
            "image_bounds": {"lower": bounds.lower, "upper": bounds.upper},
            "image_classification": bounds.classification.value,
            "written": args.out,
            "timing_seconds": elapsed,
        }
        lines = [
            f"image bounds: A={bounds.lower:.9g}  B={bounds.upper:.9g}",
            f"class:        {bounds.classification.value}",
        ]
        if args.out:
            lines.append(f"written:      {args.out}")
        _emit(args, out, lines)
        return 0

    dec = _DECOMPOSERS[args.form](inst.gframe)
    elapsed = time.perf_counter() - started
    if args.out:
        doc = {
            "schema_version": 1,
            "scalars": [complex_pair(a) for a in dec.scalars],
            "kinds": [k.value for k in dec.component_kinds],
            "components": [{"blocks": frame_document(c)} for c in dec.components],
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    out = {
        "operation": f"decompose {args.form}",
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
        "scalars": [complex_pair(a) for a in dec.scalars],
        "component_kinds": [k.value for k in dec.component_kinds],
        "reconstruction_residual": dec.reconstruction_residual,
        "written": args.out,
        "timing_seconds": elapsed,
    }
    lines = [
        f"scalars:    {', '.join(_fmt_complex(a) for a in dec.scalars)}",
        f"components: {', '.join(k.value for k in dec.component_kinds)}",
        f"residual:   {dec.reconstruction_residual:.3e}",
    ]
    if args.out:
        lines.append(f"written:    {args.out}")
    _emit(args, out, lines)
    return 0


def _cmd_multiply(args) -> int:
    inst = load_instance(args.infile)
    weights = _weights_or_ones(inst)
    companion = inst.companion or canonical_dual(inst.gframe)
    m_mat = multiplier(weights, inst.gframe, companion)
    bound = multiplier_norm_bound(weights, inst.gframe, companion)
    norm = operator_norm(m_mat)
    if args.out:
        _write_matrix_out(args.out, m_mat)
    out = {
        "operation": "multiply",
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
        "companion": "explicit" if inst.companion is not None else "canonical dual",
        "weights": [complex_pair(z) for z in np.asarray(weights)],
        "operator_norm": norm,
        "norm_bound": bound,
        "bound_holds": norm <= bound + 1e-9,
        "written": args.out,
    }
    lines = [
        f"companion:  {out['companion']}",
        f"norm:       {norm:.9g}",
        f"bound:      {bound:.9g}",
        f"holds:      {'yes' if out['bound_holds'] else 'no'}",
    ]
    if args.out:
        lines.append(f"written:    {args.out}")
    _emit(args, out, lines)
    return 0


def _cmd_invert(args) -> int:
    inst = load_instance(args.infile)
    frame = inst.gframe
    weights = _weights_or_ones(inst)
    started = time.perf_counter()
    if args.method == "bijection":
        g = _require(inst.bijection, "bijection", "an invertible matrix G")
        m_inv, cert = invert_via_bijection(weights, frame, g)
    elif args.method == "dual-neumann":
        dual = inst.dual or canonical_dual(frame)
        m_inv, cert = invert_dual_neumann(
            weights, frame, dual, tol=args.tol, swapped=args.swapped
        )
    elif args.method == "canonical":
        m_inv, cert = invert_canonical_dual(
            weights, frame, tol=args.tol, swapped=args.swapped
        )
    elif args.method == "bessel-perturb":
        companion = _require(inst.companion, "companion", "a companion family")
        m_inv, cert = invert_bessel_perturb(
            weights, frame, companion, tol=args.tol, swapped=args.swapped
        )
    elif args.method == "mu-perturb":
        companion = _require(inst.companion, "companion", "a companion family")
        m_inv, cert = invert_mu_perturb(
            weights, frame, companion, tol=args.tol, swapped=args.swapped, mu=args.mu
        )
    else:  # dual-mu
        companion = _require(inst.companion, "companion", "a companion family")
        dual = inst.dual or canonical_dual(frame)
        m_inv, cert = invert_dual_mu_perturb(
            weights, frame, dual, companion,
            tol=args.tol, swapped=args.swapped, mu=args.mu,
        )
    elapsed = time.perf_counter() - started
    if args.out:
        _write_matrix_out(args.out, m_inv)
    observed = operator_norm(m_inv)
    out = {
        "operation": f"invert {args.method}",
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
        "proposition": cert.proposition.value,
        "hypothesis_values": dict(cert.hypothesis_values),
        "inverse_norm_bracket": [cert.inverse_norm_lower, cert.inverse_norm_upper],
        "inverse_norm_observed": observed,
        "series_terms": cert.series_terms_for_tol,
        "residual": cert.residual,
        "written": args.out,
        "timing_seconds": elapsed,
    }
    hv = ", ".join(f"{k}={v:.6g}" for k, v in sorted(cert.hypothesis_values.items()))
    lines = [
        f"proposition: {cert.proposition.value}",
        f"hypothesis:  {hv}",
        f"bracket:     [{cert.inverse_norm_lower:.9g}, {cert.inverse_norm_upper:.9g}]",
        f"observed:    {observed:.9g}",
        f"terms:       {cert.series_terms_for_tol}",
        f"residual:    {cert.residual:.3e}",
    ]
    if args.out:
        lines.append(f"written:     {args.out}")
    _emit(args, out, lines)
    return 0


def _cmd_controlled(args) -> int:
    if args.form == "arith":
        if args.values:
            parts = [float(v) for v in args.values.split(",")]
            if len(parts) != 6:
                raise SchemaError("--values", "expected six comma-separated bounds")
        else:
            inst = load_instance(_require(args.infile, "in", "an instance file"))
            control = ControlOperator(
                _require(inst.control, "control", "a control matrix")
            )
            cb = controlled_bounds(inst.gframe, control)
            fb = frame_bounds(inst.gframe)
            if control.bounds is None:
                raise SchemaError("$.control", "control operator must be self-adjoint")
            parts = [cb.lower, cb.upper, fb.lower, fb.upper,
                     control.bounds[0], control.bounds[1]]
        derived = controlled_bound_arithmetic(*parts)
        out = {
            "operation": "controlled arith",
            "inputs": {"values": parts},
            "frame_operator_bounds": list(derived.frame_operator_bounds),
            "control_bounds": list(derived.control_bounds),
            "controlled_bounds": list(derived.controlled_bounds),
        }
        lines = [
            f"frame bounds in:      [{derived.frame_operator_bounds[0]:.9g}, {derived.frame_operator_bounds[1]:.9g}]",
            f"control bounds in:    [{derived.control_bounds[0]:.9g}, {derived.control_bounds[1]:.9g}]",
            f"controlled bounds in: [{derived.controlled_bounds[0]:.9g}, {derived.controlled_bounds[1]:.9g}]",
        ]
        _emit(args, out, lines)
        return 0

    inst = load_instance(_require(args.infile, "in", "an instance file"))
    control = ControlOperator(_require(inst.control, "control", "a control matrix"))
    base = {
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
    }
    if args.form == "bounds":
        cb = controlled_bounds(inst.gframe, control)
        out = {
            "operation": "controlled bounds",
            **base,
            "lower": cb.lower,
            "upper": cb.upper,
            "is_controlled_frame": cb.is_controlled_frame,
            "form_self_adjoint": cb.form_self_adjoint,
        }
        lines = [
            f"bounds:          A={cb.lower:.9g}  B={cb.upper:.9g}",
            f"controlled frame: {'yes' if cb.is_controlled_frame else 'no'}",
            f"form self-adjoint: {'yes' if cb.form_self_adjoint else 'no'}",
        ]
    elif args.form == "commute":
        res = verify_commutation(inst.gframe, control)
        out = {
            "operation": "controlled commute",
            **base,
            "holds": res.holds,
            "defect": res.defect,
        }
        lines = [
            f"commutes: {'yes' if res.holds else 'no'}",
            f"defect:   {res.defect:.3e}",
        ]
    else:  # equiv
        lhs, rhs = controlled_equivalence(inst.gframe, control)
        out = {
            "operation": "controlled equiv",
            **base,
            "controlled_frame": lhs,
            "gframe_positive_commuting": rhs,
            "agree": lhs == rhs,
        }
        lines = [
            f"controlled frame:            {'yes' if lhs else 'no'}",
            f"g-frame + positive + commute: {'yes' if rhs else 'no'}",
            f"criterion agrees:            {'yes' if lhs == rhs else 'no'}",
        ]
    _emit(args, out, lines)
    return 0


def _cmd_weighted(args) -> int:
    inst = load_instance(args.infile)
    base = {
        "instance_digest": instance_digest(inst),
        "inputs": _instance_inputs(inst, args.infile),
    }
    if args.form == "from-control":
        control = ControlOperator(_require(inst.control, "control", "a control matrix"))
        weights, is_mult = weight_from_control(inst.gframe, control)
        out = {
            "operation": "weighted from-control",
            **base,
            "weights": [complex_pair(z) for z in weights.values],
            "is_weight_multiplier": is_mult,
        }
        lines = [
            f"weights:    {', '.join(_fmt_complex(z) for z in weights.values)}",
            f"multiplier: {'yes' if is_mult else 'no'}",
        ]
        _emit(args, out, lines)
        return 0

    w = _require(inst.weights, "weights", "a weight sequence").values
    if args.form == "bounds":
        wb = weighted_bounds(inst.gframe, w)
        out = {
            "operation": "weighted bounds",
            **base,
            "lower": wb.lower,
            "upper": wb.upper,
            "classification": wb.classification.value,
        }
        lines = [
            f"bounds: A={wb.lower:.9g}  B={wb.upper:.9g}",
            f"class:  {wb.classification.value}",
        ]
    elif args.form == "dual":
        dual = weighted_dual(inst.gframe, w)
        scaled = scale_blocks(inst.gframe, w)
        defect = duality_defect(scaled, dual)
        bounds = frame_bounds(dual)
        if args.out:
            dump_instance(InstanceFile(gframe=dual), args.out)
        out = {
            "operation": "weighted dual",
            **base,
            "dual_bounds": {"lower": bounds.lower, "upper": bounds.upper},
            "duality_defect": defect,
            "written": args.out,
        }
        lines = [
            f"dual bounds: A={bounds.lower:.9g}  B={bounds.upper:.9g}",
            f"defect:      {defect:.3e}",
        ]
        if args.out:
            lines.append(f"written:     {args.out}")
    else:  # equiv
        w_alt = inst.weights_alt.values if inst.weights_alt is not None else w
        suite = weighted_equivalence_suite(inst.gframe, w, w_alt)
        out = {
            "operation": "weighted equiv",
            **base,
            "statements": dict(suite._asdict()),
            "unanimous": suite.unanimous,
        }
        lines = [
            f"{name}: {'yes' if value else 'no'}"
            for name, value in suite._asdict().items()
        ] + [f"unanimous: {'yes' if suite.unanimous else 'no'}"]
    _emit(args, out, lines)
    return 0


def _cmd_generate(args) -> int:
    partition = tuple(int(p) for p in args.partition.split(","))
    inst = generate(args.kind, args.dim, partition, args.seed)
    text = serialize_instance(inst, compact=args.compact)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written: {args.out} ({instance_digest(inst)[:16]})")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # compiled only when it runs

    return 0 if run_selftest(seed=args.seed) else 1


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gframes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, help_text, infile=True, out=False, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        if infile:
            p.add_argument("--in", dest="infile", required=True,
                           help="instance JSON file")
        if out:
            p.add_argument("--out", default=None, help="write the result here")
        if json_flag:
            fmt = p.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_true",
                             help="emit a JSON report instead of text")
            fmt.add_argument("--text", dest="json", action="store_false",
                             help="emit a text summary (default)")
        p.set_defaults(fn=fn)
        return p

    add("classify", _cmd_classify, "classify a family and report optimal bounds")
    add("dual", _cmd_dual, "compute the canonical dual family", out=True)

    p = add("decompose", _cmd_decompose,
            "decompose a family into structured components", out=True)
    p.add_argument("form", choices=[*_DECOMPOSERS, "coisometry"])

    add("multiply", _cmd_multiply,
        "assemble the weighted multiplier and check its norm bound", out=True)

    p = add("invert", _cmd_invert, "invert a multiplier with a certificate",
            out=True)
    p.add_argument("method", choices=["bijection", "dual-neumann", "canonical",
                                      "bessel-perturb", "mu-perturb", "dual-mu"])
    p.add_argument("--tol", type=float, default=TAU_INV,
                   help="series tolerance: bounds ||M^-1 - X||_2 through the "
                        "geometric tail")
    p.add_argument("--mu", type=float, default=None,
                   help="override the computed perturbation bound")
    p.add_argument("--swapped", action="store_true",
                   help="evaluate the companion-first operator order")

    p = add("controlled", _cmd_controlled,
            "controlled-frame bounds, commutation and equivalence",
            infile=False)
    p.add_argument("form", choices=["bounds", "commute", "equiv", "arith"])
    p.add_argument("--in", dest="infile", default=None, help="instance JSON file")
    p.add_argument("--values", default=None,
                   help="arith only: six comma-separated bounds "
                        "m_CL,M_CL,m,M,m_C,M_C")

    p = add("weighted", _cmd_weighted,
            "weighted-family bounds, duals and equivalences", out=True)
    p.add_argument("form", choices=["bounds", "dual", "equiv", "from-control"])

    p = add("generate", _cmd_generate, "emit a certified random instance",
            infile=False, json_flag=False)
    p.add_argument("--kind", required=True, choices=list(GENERATE_KINDS))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--partition", required=True,
                   help="comma-separated block dimensions, e.g. 2,2,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--compact", action="store_true")

    p = add("selftest", _cmd_selftest, "run the built-in property corpus",
            infile=False, json_flag=False)
    p.add_argument("--seed", type=int, default=20240)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"gframes: input error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"gframes: input error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"gframes: {exc}", file=sys.stderr)
        return 2
    except GFrameError as exc:
        print(f"gframes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
