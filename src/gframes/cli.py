"""Command-line front end.

Every command reads a JSON instance document (see io.py), runs one
library operation and builds one report, through `_report`, which also
writes the result to --out. With --json the report is printed as JSON;
otherwise the human-readable summary is rendered from that same report,
so every text field is also a JSON field. Exit codes:
0 success, 2 a checked hypothesis failed (`hypothesis violated: <inequality>
[name=value, ...]`), 3 bad input or output (malformed or unreadable file, schema
violation, bad arguments, an --out that cannot be written), 1 anything else.

`build_parser` is the one place that says which flags a command reads:
each form of decompose, invert, controlled and weighted is its own
sub-parser with exactly the flags its handler reads, so argparse rejects
any other flag (exit 3), under the form's own usage line. Flags follow the
form: `invert canonical --in F`. `_FORM_HELP` gives each form its one line
of --help.

Each command loads only the library modules it runs: the module level
imports what every command needs, and each handler imports the rest.
The modules loaded that late (multipliers, controlled, decompositions,
sampling) call other modules' public functions through the module, as
`core.frame_bounds(f)`, so a function replaced in its home module after
`import gframes.cli` is replaced for them too.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .core import canonical_dual, classify, duality_defect, frame_bounds, scale_blocks
from .errors import GFrameError, HypothesisError, InputError, SchemaError
from .io import (
    GENERATE_KINDS,
    InstanceFile,
    complex_pair,
    generate,
    instance_digest,
    json_text,
    load_instance,
    result_document,
    serialize_instance,
)
from .kernel import operator_norm
from .tolerances import TAU_BOUND, TAU_INV, Margin


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


_NEEDS = {"bijection": "an invertible matrix G", "coisometry": "a coisometry matrix",
          "companion": "a companion family", "control": "a control matrix",
          "weights": "a weight sequence"}


def _require(inst: InstanceFile, field: str):
    """The instance section `field`, which this command cannot run without."""
    value = getattr(inst, field)
    if value is None:
        raise SchemaError(f"$.{field}", f"this command needs {_NEEDS[field]}")
    return value


def _numbers(text: str, kind, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise SchemaError(flag, f"expected comma-separated numbers, got {text!r}") from None


def _load(path) -> InstanceFile:
    try:
        return load_instance(path)
    except OSError as exc:  # a directory or an unreadable file, like a missing one
        raise InputError(str(exc)) from None


def _weights_or_ones(inst: InstanceFile) -> np.ndarray:
    if inst.weights is None:
        return np.ones(inst.gframe.n_blocks)
    return inst.weights.values


class _OutputError(Exception):
    """An --out file could not be written."""


def _write_out(path: str, text: str) -> None:
    """The one writer of --out files."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:  # --out only: a broken pipe on stdout is no output error
        raise _OutputError(exc) from None


# -- text summaries: rows of (literal prefix, value read off the report) ------


def _ab(bounds: dict) -> str:
    return f"A={bounds['lower']:.9g}  B={bounds['upper']:.9g}"


def _interval(pair) -> str:
    return f"[{pair[0]:.9g}, {pair[1]:.9g}]"


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _written(report: dict):
    return report["written"] or None  # `--out ""` writes nothing


def _complexes(pairs) -> str:
    return ", ".join(
        f"{re:.6g}" if im == 0.0 else f"{re:.6g}{'+' if im >= 0 else '-'}{abs(im):.6g}j"
        for re, im in pairs
    )


_PROPERTIES = [("g-Bessel", "is_g_bessel"), ("g-frame", "is_g_frame"),
               ("g-complete", "is_g_complete"), ("g-Riesz", "is_g_riesz"),
               ("g-ONB", "is_g_onb")]

# keyed by operation, else by its first word; a row whose value is None is skipped
_TEXT = {
    "classify": [
        ("label:       ", lambda r: r["inputs"]["label"] or "-"),
        ("h_dim:       ", lambda r: r["inputs"]["h_dim"]),
        ("partition:   ", lambda r: r["inputs"]["partition"]),
        ("bounds:      ", lambda r: _ab(r["bounds"])),
        ("class:       ", lambda r: r["classification"]),
        ("properties:  ", lambda r: ", ".join(n for n, key in _PROPERTIES if r[key])),
        ("riesz:       ", lambda r: r["riesz_bounds"]
         and "C={:.9g}  D={:.9g}".format(*r["riesz_bounds"])),
    ],
    "dual": [
        ("dual bounds: ", lambda r: _ab(r["dual_bounds"])),
        ("defect:      ", lambda r: f"{r['duality_defect']:.3e}"),
        ("written:     ", _written),
    ],
    "decompose coisometry": [
        ("image bounds: ", lambda r: _ab(r["image_bounds"])),
        ("class:        ", lambda r: r["image_classification"]),
        ("written:      ", _written),
    ],
    "decompose": [
        ("scalars:    ", lambda r: _complexes(r["scalars"])),
        ("components: ", lambda r: ", ".join(r["component_kinds"])),
        ("residual:   ", lambda r: f"{r['reconstruction_residual']:.3e}"),
        ("written:    ", _written),
    ],
    "multiply": [
        ("companion:  ", lambda r: r["companion"]),
        ("norm:       ", lambda r: f"{r['operator_norm']:.9g}"),
        ("bound:      ", lambda r: f"{r['norm_bound']:.9g}"),
        ("holds:      ", lambda r: _yes(r["bound_holds"])),
        ("written:    ", _written),
    ],
    "invert": [
        ("proposition: ", lambda r: r["proposition"]),
        ("hypothesis:  ", lambda r: ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(r["hypothesis_values"].items()))),
        ("bracket:     ", lambda r: _interval(r["inverse_norm_bracket"])),
        ("observed:    ", lambda r: f"{r['inverse_norm_observed']:.9g}"),
        ("terms:       ", lambda r: r["series_terms"]),
        ("residual:    ", lambda r: f"{r['residual']:.3e}"),
        ("written:     ", _written),
    ],
    "controlled arith": [
        ("frame bounds in:      ", lambda r: _interval(r["frame_operator_bounds"])),
        ("control bounds in:    ", lambda r: _interval(r["control_bounds"])),
        ("controlled bounds in: ", lambda r: _interval(r["controlled_bounds"])),
    ],
    "controlled bounds": [
        ("bounds:          ", _ab),
        ("controlled frame: ", lambda r: _yes(r["is_controlled_frame"])),
        ("form self-adjoint: ", lambda r: _yes(r["form_self_adjoint"])),
    ],
    "controlled commute": [
        ("commutes: ", lambda r: _yes(r["holds"])),
        ("defect:   ", lambda r: f"{r['defect']:.3e}"),
    ],
    "controlled equiv": [
        ("controlled frame:            ", lambda r: _yes(r["controlled_frame"])),
        ("g-frame + positive + commute: ", lambda r: _yes(r["gframe_positive_commuting"])),
        ("criterion agrees:            ", lambda r: _yes(r["agree"])),
    ],
    "weighted from-control": [
        ("weights:    ", lambda r: _complexes(r["weights"])),
        ("multiplier: ", lambda r: _yes(r["is_weight_multiplier"])),
    ],
    "weighted bounds": [
        ("bounds: ", _ab),
        ("class:  ", lambda r: r["classification"]),
    ],
    "weighted equiv": [
        ("", lambda r: "\n".join(f"{k}: {_yes(v)}" for k, v in r["statements"].items())),
        ("unanimous: ", lambda r: _yes(r["unanimous"])),
    ],
}
_TEXT["weighted dual"] = _TEXT["dual"]


def _emit(args, report: dict) -> int:
    if args.json:
        sys.stdout.write(json_text(report))
        return 0
    op = report["operation"]
    for prefix, row in _TEXT.get(op) or _TEXT[op.split()[0]]:
        value = row(report)
        if value is not None:
            print(f"{prefix}{value}")
    return 0


def _report(args, operation: str, inst: InstanceFile, fields: dict, result=None) -> int:
    """Emit the report of an --in command: its header, then `fields`. A
    command that writes passes its `result`, which goes to --out when one is
    given, and its report names the file written."""
    report = {
        "operation": operation,
        "instance_digest": instance_digest(inst),
        "inputs": {
            "path": args.infile,
            "label": inst.label,
            "h_dim": inst.gframe.h_dim,
            "partition": list(inst.gframe.partition),
        },
        **fields,
    }
    if result is not None:
        if args.out:
            _write_out(args.out, json_text(result_document(result)))
        report["written"] = args.out
    return _emit(args, report)


# -- commands --------------------------------------------------------------


def _cmd_classify(args) -> int:
    inst = _load(args.infile)
    report = classify(inst.gframe)
    b = report.bounds
    return _report(args, "classify", inst, {
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
    })


def _dual_report(args, operation: str, inst: InstanceFile, dual, frame) -> int:
    defect = duality_defect(frame, dual)
    bounds = frame_bounds(dual)
    return _report(args, operation, inst, {
        "dual_bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "duality_defect": defect,
    }, dual)


def _cmd_dual(args) -> int:
    inst = _load(args.infile)
    return _dual_report(args, "dual", inst, canonical_dual(inst.gframe), inst.gframe)


# form -> the decompositions function that computes it
_DECOMPOSERS = {
    "three-onb": "decompose_three_gonb",
    "two-onb": "decompose_two_gonb_combo",
    "two-parseval": "decompose_two_parseval",
    "onb-plus-riesz": "decompose_gonb_plus_griesz",
}

# method -> (the multipliers function, the sections it takes after (weights, frame));
# a missing dual is the canonical one
_INVERTERS = {
    "bijection": ("invert_via_bijection", ("bijection",)),
    "dual-neumann": ("invert_dual_neumann", ("dual",)),
    "canonical": ("invert_canonical_dual", ()),
    "bessel-perturb": ("invert_bessel_perturb", ("companion",)),
    "mu-perturb": ("invert_mu_perturb", ("companion",)),
    "dual-mu": ("invert_dual_mu_perturb", ("dual", "companion")),
}

# command -> form -> its one-line help, in the order --help lists them
_FORM_HELP = {
    "decompose": {
        "three-onb": "a g-Riesz family as a*(U1 + U2 + U3), three g-ONBs",
        "two-onb": "a g-Riesz family as a*(U1 + U2), two g-ONBs",
        "two-parseval": "any g-frame as a*(P1 + P2), two Parseval g-frames",
        "onb-plus-riesz": "a g-Riesz family as a g-ONB plus a g-Riesz family",
        "coisometry": "the image {Theta_i K*} of a g-ONB under a coisometry K",
    },
    "invert": {
        "bijection": "P3.3: M = sum m_i Lambda_i* Lambda_i G, exactly",
        "dual-neumann": "P3.4: dual pair, lambda*sqrt(B_Lambda*B_dual) < 1",
        "canonical": "C3.5: canonical dual, lambda < sqrt(A_Lambda/B_Lambda)",
        "bessel-perturb": "P3.6: Bessel perturbation, B_diff < A_Lambda^2/B_Lambda",
        "mu-perturb": "P3.7: perturbed frame, mu < A_Lambda^2/B_Lambda",
        "dual-mu": "P3.8: perturbed dual, mu < 1/B_Lambda",
    },
    "controlled": {
        "bounds": "extremes of the controlled form <S C* f, f>",
        "commute": "whether S C* = C S",
        "equiv": "both sides of the controlled-frame criterion",
        "arith": "S, C and S_C bounds from each other, C > 0 commuting",
    },
    "weighted": {
        "bounds": "optimal bounds of {w_i Lambda_i}",
        "dual": "the dual {w_i^-1 D_i} of {w_i Lambda_i}",
        "equiv": "the six equivalent weighted-frame statements",
        "from-control": "the weights a control operator induces on block ranges",
    },
}


def _cmd_decompose(args) -> int:
    from . import decompositions

    inst = _load(args.infile)
    started = time.perf_counter()
    if args.form == "coisometry":
        image = decompositions.coisometry_image(inst.gframe, _require(inst, "coisometry"))
        elapsed = time.perf_counter() - started
        bounds = frame_bounds(image)
        return _report(args, "decompose coisometry", inst, {
            "image_bounds": {"lower": bounds.lower, "upper": bounds.upper},
            "image_classification": bounds.classification.value,
            "timing_seconds": elapsed,
        }, image)

    dec = getattr(decompositions, _DECOMPOSERS[args.form])(inst.gframe)
    elapsed = time.perf_counter() - started
    return _report(args, f"decompose {args.form}", inst, {
        "scalars": [complex_pair(a) for a in dec.scalars],
        "component_kinds": [k.value for k in dec.component_kinds],
        "reconstruction_residual": dec.reconstruction_residual,
        "timing_seconds": elapsed,
    }, dec)


def _cmd_multiply(args) -> int:
    from . import multipliers

    inst = _load(args.infile)
    weights = _weights_or_ones(inst)
    companion = inst.companion or canonical_dual(inst.gframe)
    m_mat = multipliers.multiplier(weights, inst.gframe, companion)
    bound = multipliers.multiplier_norm_bound(weights, inst.gframe, companion)
    norm = operator_norm(m_mat)
    return _report(args, "multiply", inst, {
        "companion": "explicit" if inst.companion is not None else "canonical dual",
        "weights": [complex_pair(z) for z in np.asarray(weights)],
        "operator_norm": norm,
        "norm_bound": bound,
        "bound_holds": Margin.relative(norm - bound, TAU_BOUND, bound).holds,
    }, m_mat)


def _cmd_invert(args) -> int:
    from . import multipliers

    inst = _load(args.infile)
    frame = inst.gframe
    weights = _weights_or_ones(inst)
    started = time.perf_counter()
    name, fields = _INVERTERS[args.method]
    sections = {f: _require(inst, f) for f in fields if f != "dual"}
    if "dual" in fields:  # formed only once every required section is there
        sections["dual"] = inst.dual or canonical_dual(frame)
    series = {k: v for k, v in vars(args).items() if k in ("tol", "swapped")}  # none for P3.3
    m_inv, cert = getattr(multipliers, name)(
        weights, frame, *(sections[f] for f in fields), **series)
    elapsed = time.perf_counter() - started
    return _report(args, f"invert {args.method}", inst, {
        "proposition": cert.proposition.value,
        "hypothesis_values": dict(cert.hypothesis_values),
        "inverse_norm_bracket": [cert.inverse_norm_lower, cert.inverse_norm_upper],
        "inverse_norm_observed": operator_norm(m_inv),
        "series_terms": cert.series_terms_for_tol,
        "residual": cert.residual,
        "timing_seconds": elapsed,
    }, m_inv)


def _cmd_arith(args) -> int:
    from . import controlled

    if args.values is not None:
        parts = _numbers(args.values, float, "--values")
        if len(parts) != 6:
            raise SchemaError("--values", "expected six comma-separated bounds")
    else:
        inst = _load(args.infile)
        control = controlled.ControlOperator(_require(inst, "control"))
        controlled._require_controlled_pair(inst.gframe, control)
        cb = controlled.controlled_bounds(inst.gframe, control)
        fb = frame_bounds(inst.gframe)
        parts = [cb.lower, cb.upper, fb.lower, fb.upper, control.bounds[0], control.bounds[1]]
    derived = controlled.controlled_bound_arithmetic(*parts)
    return _emit(args, {
        "operation": "controlled arith",
        "inputs": {"values": parts},
        "frame_operator_bounds": list(derived.frame_operator_bounds),
        "control_bounds": list(derived.control_bounds),
        "controlled_bounds": list(derived.controlled_bounds),
    })


def _cmd_controlled(args) -> int:
    from . import controlled

    inst = _load(args.infile)
    control = controlled.ControlOperator(_require(inst, "control"))
    if args.form == "bounds":
        cb = controlled.controlled_bounds(inst.gframe, control)
        fields = {
            "lower": cb.lower,
            "upper": cb.upper,
            "is_controlled_frame": cb.is_controlled_frame,
            "form_self_adjoint": cb.form_self_adjoint,
        }
    elif args.form == "commute":
        res = controlled.verify_commutation(inst.gframe, control)
        fields = {"holds": res.holds, "defect": res.defect}
    else:  # equiv
        lhs, rhs = controlled.controlled_equivalence(inst.gframe, control)
        fields = {"controlled_frame": lhs, "gframe_positive_commuting": rhs, "agree": lhs == rhs}
    return _report(args, f"controlled {args.form}", inst, fields)


def _cmd_weighted(args) -> int:
    from . import controlled

    inst = _load(args.infile)
    if args.form == "from-control":
        control = controlled.ControlOperator(_require(inst, "control"))
        weights, is_mult = controlled.weight_from_control(inst.gframe, control)
        return _report(args, "weighted from-control", inst, {
            "weights": [complex_pair(z) for z in weights.values],
            "is_weight_multiplier": is_mult,
        })

    w = _require(inst, "weights").values
    if args.form == "bounds":
        wb = controlled.weighted_bounds(inst.gframe, w)
        return _report(args, "weighted bounds", inst, {
            "lower": wb.lower,
            "upper": wb.upper,
            "classification": wb.classification.value,
        })
    if args.form == "dual":
        return _dual_report(args, "weighted dual", inst,
                            controlled.weighted_dual(inst.gframe, w), scale_blocks(inst.gframe, w))
    w_alt = inst.weights_alt.values if inst.weights_alt is not None else w  # equiv
    suite = controlled.weighted_equivalence_suite(inst.gframe, w, w_alt)
    return _report(args, "weighted equiv", inst, {
        "statements": dict(suite._asdict()),
        "unanimous": suite.unanimous,
    })


def _cmd_generate(args) -> int:
    partition = tuple(_numbers(args.partition, int, "--partition"))
    inst = generate(args.kind, args.dim, partition, args.seed)
    text = serialize_instance(inst, compact=args.compact)
    if args.out:
        _write_out(args.out, text)
        print(f"written: {args.out} ({instance_digest(inst)[:16]})")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 1


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gframes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, help_text=None, infile=True, out=False, json_flag=True, under=sub):
        p = under.add_parser(name, help=help_text)
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
        p.set_defaults(fn=fn, parser=p)
        return p

    def forms(name, help_text, dest="form"):
        return sub.add_parser(name, help=help_text).add_subparsers(
            dest=dest, required=True, parser_class=_Parser)

    add("classify", _cmd_classify, "classify a family and report optimal bounds")
    add("dual", _cmd_dual, "compute the canonical dual family", out=True)

    decompose = forms("decompose", "decompose a family into structured components")
    for form, help_text in _FORM_HELP["decompose"].items():
        add(form, _cmd_decompose, help_text, out=True, under=decompose)

    add("multiply", _cmd_multiply,
        "assemble the weighted multiplier and check its norm bound", out=True)

    invert = forms("invert", "invert a multiplier with a certificate", dest="method")
    for method, help_text in _FORM_HELP["invert"].items():
        p = add(method, _cmd_invert, help_text, out=True, under=invert)
        if method != "bijection":  # P3.3 is exact; the five others sum a series
            p.add_argument("--tol", type=float, default=TAU_INV,
                           help="series tolerance: bounds ||M^-1 - X||_2 through the "
                                "geometric tail")
            p.add_argument("--swapped", action="store_true",
                           help="evaluate the companion-first operator order")

    controlled = forms("controlled", "controlled-frame bounds, commutation and equivalence")
    helps = _FORM_HELP["controlled"]
    for form in ("bounds", "commute", "equiv"):
        add(form, _cmd_controlled, helps[form], under=controlled)
    p = add("arith", _cmd_arith, helps["arith"], infile=False, under=controlled)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="instance JSON file")
    source.add_argument("--values", help="six comma-separated bounds m_CL,M_CL,m,M,m_C,M_C")

    weighted = forms("weighted", "weighted-family bounds, duals and equivalences")
    for form, help_text in _FORM_HELP["weighted"].items():
        add(form, _cmd_weighted, help_text, out=form == "dual", under=weighted)

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
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported by the form's own parser, under its usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"gframes: input error: {exc}", file=sys.stderr)
        return 3
    except _OutputError as exc:
        print(f"gframes: output error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"gframes: {exc}", file=sys.stderr)
        return 2
    except GFrameError as exc:
        print(f"gframes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
