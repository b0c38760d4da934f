"""End-to-end command tests, run in-process against cli.main."""

import argparse
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gframes import selftest
from gframes.cli import build_parser, main
from gframes.controlled import WeightedEquivalence
from gframes.core import canonical_dual, scale_blocks
from gframes.io import (
    InstanceFile,
    frame_document,
    instance_digest,
    json_text,
    load_instance,
    matrix_document,
    serialize_instance,
)
from gframes.multipliers import WeightSequence
from gframes.sampling import eigenblock_control_instance, random_gframe

IDENTITY_DOC = {
    "schema_version": 1,
    "h_dim": 2,
    "label": "identity pair",
    "blocks": [
        {"dim": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]},
        {"dim": 1, "matrix": [[[0.0, 0.0], [1.0, 0.0]]]},
    ],
}


def write_doc(tmp_path, name="instance.json", **overrides):
    doc = {**IDENTITY_DOC, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one call, argparse's usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify --------------------------------------------------------------------


def test_classify_identity_text(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, out, err = run(capsys, "classify", "--in", path)
    assert code == 0 and err == ""
    assert "ParsevalGFrame" in out
    assert "g-ONB" in out
    assert "A=1" in out and "B=1" in out


def test_classify_json_report(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, out, _ = run(capsys, "classify", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["operation"] == "classify"
    assert report["classification"] == "ParsevalGFrame"
    assert report["is_g_onb"] and report["is_g_riesz"]
    assert report["bounds"]["lower"] == pytest.approx(1.0)
    assert report["inputs"]["label"] == "identity pair"
    assert report["instance_digest"] == instance_digest(load_instance(path))


def _band_doc(tmp_path):
    # ||S - I||_F = 0.99e-8 passes the Parseval test, though B - A = 1.4e-8
    diag = np.sqrt(1 + np.array([0.7e-8, -0.7e-8]))
    return write_doc(tmp_path, "band.json", blocks=[
        {"dim": 1, "matrix": matrix_document([[diag[0], 0.0]])},
        {"dim": 1, "matrix": matrix_document([[0.0, diag[1]]])},
    ], coisometry=matrix_document(np.eye(2)))


def test_classify_json_one_parseval_verdict(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", "--in", _band_doc(tmp_path), "--json")
    report = json.loads(out)
    assert code == 0 and report["classification"] == "ParsevalGFrame"
    assert report["is_tight"] and report["is_parseval"] and report["is_g_onb"]


def test_coisometry_image_class_is_its_certificate(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", "coisometry", "--in", _band_doc(tmp_path), "--json")
    assert code == 0 and json.loads(out)["image_classification"] == "ParsevalGFrame"


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path)
    _, first, _ = run(capsys, "classify", "--in", path, "--json")
    _, second, _ = run(capsys, "classify", "--in", path, "--json")
    assert first == second


# -- dual and decompose ------------------------------------------------------------


def test_dual_writes_instance(tmp_path, capsys):
    path = write_doc(tmp_path)
    out_path = tmp_path / "dual.json"
    code, out, _ = run(capsys, "dual", "--in", path, "--out", str(out_path))
    assert code == 0
    assert "defect" in out
    dual = load_instance(out_path)
    assert dual.gframe.h_dim == 2


def test_decompose_three_onb_on_generated_riesz(tmp_path, capsys):
    inst_path = tmp_path / "riesz.json"
    code, _, _ = run(
        capsys, "generate", "--kind", "g_riesz", "--dim", "3",
        "--partition", "1,2", "--seed", "4", "--out", str(inst_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "decompose", "three-onb", "--in", str(inst_path), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["reconstruction_residual"] <= 1e-9
    assert len(report["scalars"]) == 3
    assert "timing_seconds" in report


def test_decompose_report_deterministic_modulo_timing(tmp_path, capsys):
    inst_path = tmp_path / "riesz.json"
    run(capsys, "generate", "--kind", "g_riesz", "--dim", "3",
        "--partition", "1,2", "--seed", "4", "--out", str(inst_path))
    _, first, _ = run(capsys, "decompose", "two-onb", "--in", str(inst_path),
                      "--json")
    _, second, _ = run(capsys, "decompose", "two-onb", "--in", str(inst_path),
                       "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("timing_seconds"), b.pop("timing_seconds")
    assert a == b


def test_decompose_coisometry_requires_the_matrix(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, _, err = run(capsys, "decompose", "coisometry", "--in", path)
    assert code == 3
    assert "coisometry" in err


# -- multiply and invert ------------------------------------------------------------


def test_multiply_defaults_to_canonical_dual(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[2.0, 0.0], [3.0, 0.0]])
    code, out, _ = run(capsys, "multiply", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["companion"] == "canonical dual"
    assert report["bound_holds"]
    assert report["operator_norm"] == pytest.approx(3.0)


def test_multiply_bound_holds_at_scale(tmp_path, capsys):
    # a frame as its own companion with unit weights has ||M|| = B exactly,
    # so at scale 1e4 (B ~ 3e8) rounding alone exceeds an absolute slack
    path = tmp_path / "scaled.json"
    for seed in range(10):
        frame = scale_blocks(random_gframe(np.random.default_rng(seed), 6, (2, 1, 3)), [1e4] * 3)
        path.write_text(serialize_instance(
            InstanceFile(frame, WeightSequence(np.ones(3)), companion=frame)))
        code, out, _ = run(capsys, "multiply", "--in", str(path), "--json")
        report = json.loads(out)
        assert code == 0
        assert report["operator_norm"] == pytest.approx(report["norm_bound"], rel=1e-12)
        assert report["bound_holds"], seed


def test_invert_dual_neumann_report(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[0.9, 0.0], [1.1, 0.0]])
    out_path = tmp_path / "inverse.json"
    code, out, _ = run(
        capsys, "invert", "dual-neumann", "--in", path, "--tol", "1e-10",
        "--json", "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["proposition"] == "P34_DualPerturb"
    assert report["residual"] <= 1e-9
    lo, hi = report["inverse_norm_bracket"]
    assert lo - 1e-9 <= report["inverse_norm_observed"] <= hi + 1e-9
    assert report["series_terms"] >= 1
    written = json.loads(out_path.read_text())
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in written["matrix"]]
    )
    assert np.allclose(matrix, np.diag([1 / 0.9, 1 / 1.1]), atol=1e-9)


def test_invert_hypothesis_violation_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[9.0, 0.0], [1.0, 0.0]])
    code, _, err = run(capsys, "invert", "canonical", "--in", path)
    assert code == 2
    assert "hypothesis violated" in err
    assert "lambda < sqrt(A_Lambda/B_Lambda)" in err


def test_invert_term_cap_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[1e-6, 0.0], [1.0, 0.0]])
    code, _, err = run(capsys, "invert", "dual-neumann", "--in", path)
    assert code == 1
    assert "terms" in err


def test_invert_rejects_bad_tolerance(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, _, err = run(capsys, "invert", "canonical", "--in", path,
                       "--tol", "-1")
    assert code == 3
    assert "tolerance" in err


def test_invert_mu_perturb_needs_companion(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, _, err = run(capsys, "invert", "mu-perturb", "--in", path)
    assert code == 3
    assert "companion" in err


def test_invert_mu_perturb_has_no_mu_override(tmp_path, capsys):
    # a companion 1e-7 off the identity has mu = 1e-14; a supplied mu = 0
    # would stop the series at S^-1 = I, 1e-7 from M^-1, and claim tol 1e-8
    path = write_doc(tmp_path, companion={"blocks": [
        {"dim": 1, "matrix": [[[1.0 + 1e-7, 0.0], [0.0, 0.0]]]}, IDENTITY_DOC["blocks"][1]]})
    code, _, err = run(capsys, "invert", "mu-perturb", "--in", path, "--mu", "0")
    assert code == 3
    assert "unrecognized arguments: --mu 0" in err
    out_path = tmp_path / "inverse.json"
    code, _, _ = run(capsys, "invert", "mu-perturb", "--in", path, "--out", str(out_path))
    assert code == 0
    matrix = np.array([[complex(re, im) for re, im in row]
                       for row in json.loads(out_path.read_text())["matrix"]])
    assert np.abs(matrix - np.diag([1 / (1 + 1e-7), 1.0])).max() <= 1e-8


def test_invert_bijection_roundtrip(tmp_path, capsys):
    path = write_doc(tmp_path, bijection=matrix_document(np.diag([2.0, 4.0])))
    code, out, _ = run(capsys, "invert", "bijection", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["proposition"] == "P33_Bijection"
    assert report["series_terms"] == 0
    assert report["residual"] <= 1e-10


# -- controlled and weighted ---------------------------------------------------------


def test_controlled_bounds_and_equiv(tmp_path, capsys):
    path = write_doc(tmp_path, control=matrix_document(np.diag([2.0, 3.0])))
    code, out, _ = run(capsys, "controlled", "bounds", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == pytest.approx(2.0)
    assert report["upper"] == pytest.approx(3.0)
    assert report["is_controlled_frame"]

    code, out, _ = run(capsys, "controlled", "equiv", "--in", path)
    assert code == 0
    assert "criterion agrees:            yes" in out


def test_controlled_commute_reports_defect(tmp_path, capsys):
    path = write_doc(tmp_path, control=matrix_document(np.eye(2)))
    code, out, _ = run(capsys, "controlled", "commute", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] and report["defect"] <= 1e-12


def test_controlled_arith_from_values(capsys):
    code, out, _ = run(
        capsys, "controlled", "arith", "--values", "2,3,1,1,2,3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["frame_operator_bounds"] == pytest.approx([2 / 3, 1.5])
    assert report["control_bounds"] == pytest.approx([2.0, 3.0])
    assert report["controlled_bounds"] == pytest.approx([2.0, 3.0])


def test_controlled_needs_instance_or_values(capsys):
    code, out, err = run(capsys, "controlled", "bounds")
    assert (code, out) == (3, "")
    assert "the following arguments are required: --in" in err
    code, out, err = run(capsys, "controlled", "arith")
    assert (code, out) == (3, "")
    assert "one of the arguments --in --values is required" in err


def test_controlled_arith_rejects_wrong_count(capsys):
    code, _, err = run(capsys, "controlled", "arith", "--values", "1,2,3")
    assert code == 3
    assert "six" in err


def test_controlled_arith_rejects_non_numeric_values(capsys):
    code, _, err = run(capsys, "controlled", "arith", "--values", "2,3,1,1,2,x")
    assert code == 3
    assert "input error: --values" in err


def test_weighted_bounds_and_dual(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[2.0, 0.0], [3.0, 0.0]])
    code, out, _ = run(capsys, "weighted", "bounds", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == pytest.approx(4.0)
    assert report["upper"] == pytest.approx(9.0)

    out_path = tmp_path / "wdual.json"
    code, _, _ = run(capsys, "weighted", "dual", "--in", path,
                     "--out", str(out_path))
    assert code == 0
    dual = load_instance(out_path)
    assert np.allclose(dual.gframe.blocks[0], [[0.5, 0.0]])
    assert np.allclose(dual.gframe.blocks[1], [[0.0, 1 / 3]])


def test_weighted_equiv_unanimous(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        weights=[[2.0, 0.0], [3.0, 0.0]],
        weights_alt=[[1.0, 0.0], [1.0, 0.0]],
    )
    code, out, _ = run(capsys, "weighted", "equiv", "--in", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["unanimous"]
    assert all(report["statements"].values())


def test_weighted_from_control(tmp_path, capsys):
    path = write_doc(tmp_path, control=matrix_document(np.diag([2.0, 3.0])))
    code, out, _ = run(capsys, "weighted", "from-control", "--in", path)
    assert code == 0
    assert "2, 3" in out
    assert "multiplier: yes" in out


def test_weighted_from_control_block_too_large_exits_3(tmp_path, capsys):
    frame, control, _ = eigenblock_control_instance(np.random.default_rng(3), (2, 1, 2))
    huge = scale_blocks(frame, [1e160] * 3)
    path = write_doc(tmp_path, h_dim=5, blocks=frame_document(huge),
                     control=matrix_document(control.matrix))
    code, out, err = run(capsys, "weighted", "from-control", "--in", path)
    assert (code, out) == (3, "")
    assert err == "gframes: input error: block 0 is too large: its squared norm overflows\n"


def test_flags_a_form_does_not_read_exit_3(tmp_path, capsys):
    path = write_doc(tmp_path, weights=[[2.0, 0.0], [3.0, 0.0]],
                     control=matrix_document(np.diag([2.0, 3.0])))
    target = tmp_path / "never.json"
    cases = [(["weighted", form, "--out", str(target)], "--out")
             for form in ("bounds", "equiv", "from-control")]
    cases += [(["controlled", form, "--values", "2,3,1,1,2,3"], "--values")
              for form in ("bounds", "commute", "equiv")]
    cases += [(["invert", "bijection", *flag], flag[0])
              for flag in (["--tol", "1e-3"], ["--swapped"])]
    for argv, flag in cases:
        code, out, err = run(capsys, *argv, "--in", path)
        assert (code, out) == (3, ""), argv
        assert f"unrecognized arguments: {flag}" in err, argv
        assert "Traceback" not in err and not target.exists()


def _forms(parser):
    """{name: sub-parser} of a parser's sub-commands, or {} for a leaf."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _flags(parser) -> dict:
    """{option string: its action} of every flag a leaf parser registers, --help aside."""
    return {s: a for a in parser._actions for s in a.option_strings if a.dest != "help"}


def test_each_form_accepts_exactly_the_flags_it_reads(tmp_path, capsys):
    # every flag a sibling form registers and this form does not exits 3
    # through argparse, before anything is read or written
    path = write_doc(tmp_path)
    target = tmp_path / "never.json"
    values = {"--in": path, "--out": str(target), "--tol": "1e-3",
              "--values": "2,3,1,1,2,3"}
    tried = []
    for command, parser in _forms(build_parser()).items():
        assert run(capsys, command, "--help")[0] == 0, command
        forms = _forms(parser)
        for form, leaf in forms.items():
            code, out, _ = run(capsys, command, form, "--help")
            assert code == 0 and out.startswith(f"usage: gframes {command} {form} "), form
            own = _flags(leaf)
            base = ["--in", path] if own["--in"].required else ["--values", values["--values"]]
            siblings = {f: a for other in forms.values() for f, a in _flags(other).items()}
            for flag in siblings.keys() - own.keys():
                given = [values[flag]] if siblings[flag].nargs != 0 else []
                argv = [command, form, *base, flag, *given]
                code, out, err = run(capsys, *argv)
                assert (code, out) == (3, ""), argv
                assert f"unrecognized arguments: {flag}" in err, argv
                assert "Traceback" not in err and not target.exists()
                tried.append((command, form, flag))
    assert sorted(tried) == sorted(
        [("invert", "bijection", "--swapped"), ("invert", "bijection", "--tol")]
        + [("controlled", form, "--values") for form in ("bounds", "commute", "equiv")]
        + [("weighted", form, "--out") for form in ("bounds", "equiv", "from-control")])
    # flags follow the form, and arith reads its bounds from one source
    for argv in (["invert", "--in", path, "canonical"],
                 ["controlled", "arith", "--values", values["--values"], "--in", path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "Traceback" not in err, argv


def test_controlled_arith_rejects_empty_values(tmp_path, capsys):
    code, out, err = run(capsys, "controlled", "arith", "--values", "")
    assert (code, out) == (3, "")
    assert err.startswith("gframes: input error: --values: ")


def test_weighted_bounds_needs_weights(tmp_path, capsys):
    path = write_doc(tmp_path)
    code, _, err = run(capsys, "weighted", "bounds", "--in", path)
    assert code == 3
    assert "weights" in err


# -- text summaries ----------------------------------------------------------------


def _ref_yes(flag):
    return "yes" if flag else "no"


def _ref_complexes(pairs):
    out = []
    for re_, im in pairs:
        out.append(f"{re_:.6g}" if im == 0.0
                   else f"{re_:.6g}{'+' if im >= 0 else '-'}{abs(im):.6g}j")
    return ", ".join(out)


def reference_text(report, statement_order):
    """The text summary of a --json report, with each format string the
    summaries were first written with."""
    r, op = report, report["operation"]
    if op == "classify":
        b = r["bounds"]
        flags = [name for name, key in [
            ("g-Bessel", "is_g_bessel"), ("g-frame", "is_g_frame"),
            ("g-complete", "is_g_complete"), ("g-Riesz", "is_g_riesz"),
            ("g-ONB", "is_g_onb")] if r[key]]
        lines = [
            f"label:       {r['inputs']['label'] or '-'}",
            f"h_dim:       {r['inputs']['h_dim']}",
            f"partition:   {r['inputs']['partition']}",
            f"bounds:      A={b['lower']:.9g}  B={b['upper']:.9g}",
            f"class:       {r['classification']}",
            f"properties:  {', '.join(flags)}",
        ]
        if r["riesz_bounds"]:
            c, d = r["riesz_bounds"]
            lines.append(f"riesz:       C={c:.9g}  D={d:.9g}")
        return lines
    if op in ("dual", "weighted dual"):
        b = r["dual_bounds"]
        lines = [f"dual bounds: A={b['lower']:.9g}  B={b['upper']:.9g}",
                 f"defect:      {r['duality_defect']:.3e}"]
        return lines + ([f"written:     {r['written']}"] if r["written"] else [])
    if op == "decompose coisometry":
        b = r["image_bounds"]
        lines = [f"image bounds: A={b['lower']:.9g}  B={b['upper']:.9g}",
                 f"class:        {r['image_classification']}"]
        return lines + ([f"written:      {r['written']}"] if r["written"] else [])
    if op.startswith("decompose "):
        lines = [f"scalars:    {_ref_complexes(r['scalars'])}",
                 f"components: {', '.join(r['component_kinds'])}",
                 f"residual:   {r['reconstruction_residual']:.3e}"]
        return lines + ([f"written:    {r['written']}"] if r["written"] else [])
    if op == "multiply":
        lines = [f"companion:  {r['companion']}",
                 f"norm:       {r['operator_norm']:.9g}",
                 f"bound:      {r['norm_bound']:.9g}",
                 f"holds:      {_ref_yes(r['bound_holds'])}"]
        return lines + ([f"written:    {r['written']}"] if r["written"] else [])
    if op.startswith("invert "):
        hv = ", ".join(f"{k}={v:.6g}" for k, v in sorted(r["hypothesis_values"].items()))
        lo, hi = r["inverse_norm_bracket"]
        lines = [f"proposition: {r['proposition']}",
                 f"hypothesis:  {hv}",
                 f"bracket:     [{lo:.9g}, {hi:.9g}]",
                 f"observed:    {r['inverse_norm_observed']:.9g}",
                 f"terms:       {r['series_terms']}",
                 f"residual:    {r['residual']:.3e}"]
        return lines + ([f"written:     {r['written']}"] if r["written"] else [])
    if op == "controlled arith":
        (f0, f1), (c0, c1), (k0, k1) = (r["frame_operator_bounds"],
                                        r["control_bounds"], r["controlled_bounds"])
        return [f"frame bounds in:      [{f0:.9g}, {f1:.9g}]",
                f"control bounds in:    [{c0:.9g}, {c1:.9g}]",
                f"controlled bounds in: [{k0:.9g}, {k1:.9g}]"]
    if op == "controlled bounds":
        return [f"bounds:          A={r['lower']:.9g}  B={r['upper']:.9g}",
                f"controlled frame: {_ref_yes(r['is_controlled_frame'])}",
                f"form self-adjoint: {_ref_yes(r['form_self_adjoint'])}"]
    if op == "controlled commute":
        return [f"commutes: {_ref_yes(r['holds'])}", f"defect:   {r['defect']:.3e}"]
    if op == "controlled equiv":
        return [f"controlled frame:            {_ref_yes(r['controlled_frame'])}",
                f"g-frame + positive + commute: {_ref_yes(r['gframe_positive_commuting'])}",
                f"criterion agrees:            {_ref_yes(r['agree'])}"]
    if op == "weighted from-control":
        return [f"weights:    {_ref_complexes(r['weights'])}",
                f"multiplier: {_ref_yes(r['is_weight_multiplier'])}"]
    if op == "weighted bounds":
        return [f"bounds: A={r['lower']:.9g}  B={r['upper']:.9g}",
                f"class:  {r['classification']}"]
    if op == "weighted equiv":
        return [f"{name}: {_ref_yes(r['statements'][name])}" for name in statement_order] + [
            f"unanimous: {_ref_yes(r['unanimous'])}"]
    raise AssertionError(f"no reference layout for {op!r}")


def test_text_summary_renders_the_json_report(tmp_path, capsys):
    generated = tmp_path / "generated.json"
    assert main(["generate", "--kind", "g_riesz", "--dim", "3", "--partition",
                 "1,2", "--seed", "4", "--out", str(generated)]) == 0
    capsys.readouterr()
    riesz = json.loads(generated.read_text())
    riesz["weights"] = [[0.9, 0.05], [1.1, 0.0]]
    riesz_path = tmp_path / "riesz.json"
    riesz_path.write_text(json.dumps(riesz))
    tall = write_doc(tmp_path, "tall.json", label=None, blocks=[
        {"dim": 2, "matrix": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, -0.25]]]},
        {"dim": 1, "matrix": [[[0.25, 0.5], [0.0, 0.0]]]},
    ])
    pair = write_doc(
        tmp_path, "pair.json",
        weights=[[2.0, 0.0], [3.0, -1.5]],
        control=matrix_document(np.diag([2.0, 3.0])),
        coisometry=matrix_document([[0.6, 0.8]]),
    )
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({**riesz, "companion": {"blocks": riesz["blocks"]}}))
    dual = canonical_dual(load_instance(riesz_path).gframe)
    dual_mu_path = tmp_path / "dual_mu.json"
    dual_mu_path.write_text(json.dumps({**riesz, "companion": {"blocks": frame_document(dual)}}))
    positive = write_doc(tmp_path, "positive.json", weights=[[2.0, 0.0], [3.0, 0.0]],
                         weights_alt=[[1.0, 0.0], [1.0, 0.0]],
                         bijection=matrix_document(np.diag([2.0, 4.0])))
    cases = [
        ("classify", "--in", str(riesz_path)),
        ("classify", "--in", tall),
        ("dual", "--in", str(riesz_path), "--out"),
        ("dual", "--in", tall),
        ("decompose", "two-parseval", "--in", str(riesz_path), "--out"),
        ("decompose", "three-onb", "--in", str(riesz_path)),
        ("decompose", "coisometry", "--in", pair, "--out"),
        ("decompose", "coisometry", "--in", pair),
        ("multiply", "--in", pair, "--out"),
        ("multiply", "--in", str(riesz_path)),
        ("invert", "dual-neumann", "--in", str(riesz_path), "--out"),
        ("invert", "bijection", "--in", positive),
        ("invert", "mu-perturb", "--in", str(mu_path), "--out"),
        ("invert", "dual-mu", "--in", str(dual_mu_path)),
        ("controlled", "bounds", "--in", pair),
        ("controlled", "commute", "--in", pair),
        ("controlled", "equiv", "--in", pair),
        ("controlled", "arith", "--in", pair),
        ("controlled", "arith", "--values", "2,3,1,1.5,2,3"),
        ("weighted", "bounds", "--in", positive),
        ("weighted", "dual", "--in", positive, "--out"),
        ("weighted", "dual", "--in", positive),
        ("weighted", "equiv", "--in", positive),
        ("weighted", "from-control", "--in", pair),
    ]
    for n, case in enumerate(cases):
        argv = list(case)
        if argv[-1] == "--out":
            argv.append(str(tmp_path / f"out{n}.json"))
        assert main(argv + ["--json"]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        written = tmp_path / f"out{n}.json"
        if "--out" in argv:
            json_bytes = written.read_bytes()
            written.unlink()
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        expected = reference_text(report, WeightedEquivalence._fields)
        assert out == "".join(line + "\n" for line in expected), argv
        if "--out" in argv:
            assert written.read_bytes() == json_bytes


def test_every_out_file_has_the_one_json_layout(tmp_path, capsys):
    # instance documents (None), matrix and decomposition documents, each
    # laid out by io.json_text
    path = write_doc(tmp_path, weights=[[0.9, 0.0], [1.1, 0.0]],
                     coisometry=matrix_document([[0.6, 0.8]]))
    matrix = {"schema_version", "matrix"}
    cases = [
        (["dual", "--in", path], None),
        (["decompose", "two-parseval", "--in", path],
         {"schema_version", "scalars", "kinds", "components"}),
        (["decompose", "coisometry", "--in", path], None),
        (["multiply", "--in", path], matrix),
        (["invert", "dual-neumann", "--in", path], matrix),
        (["weighted", "dual", "--in", path], None),
        (["generate", "--kind", "g_riesz", "--dim", "3", "--partition", "1,2"], None),
    ]
    for n, (argv, keys) in enumerate(cases):
        out = tmp_path / f"out{n}.json"
        assert main([*argv, "--out", str(out)]) == 0, argv
        text = out.read_text()
        assert text == json_text(json.loads(text)), argv
        if keys is None:
            load_instance(out)
        else:
            assert set(json.loads(text)) == keys, argv
    capsys.readouterr()


# -- generate and selftest -------------------------------------------------------------


def test_generate_stdout_is_deterministic(capsys):
    argv = ["generate", "--kind", "parseval", "--dim", "2",
            "--partition", "1,1,1", "--seed", "6"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1


def test_generate_out_reports_digest(tmp_path, capsys):
    target = tmp_path / "gen.json"
    code, out, _ = run(
        capsys, "generate", "--kind", "random_gframe", "--dim", "2",
        "--partition", "2", "--seed", "0", "--out", str(target),
    )
    assert code == 0
    assert "written:" in out
    inst = load_instance(target)
    assert instance_digest(inst)[:16] in out


def test_generate_rejects_non_numeric_partition(capsys):
    code, out, err = run(capsys, "generate", "--kind", "parseval", "--dim", "2",
                         "--partition", "1,x")
    assert code == 3 and out == ""
    assert "input error: --partition" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "20240")
    assert code == 0
    assert "ok" in out
    assert "FAIL" not in out


SABOTAGED_SELFTEST = """
import io, sys
import gframes.selftest as selftest
honest = selftest.unitary_pair_from_contraction
selftest.unitary_pair_from_contraction = lambda *args, **kwargs: tuple(
    1.01 * u for u in honest(*args, **kwargs))
report = io.StringIO()
print(sys.flags.optimize, selftest.run_selftest(stream=report))
print(report.getvalue())
"""


def test_selftest_fails_on_sabotaged_kernel_under_python_O():
    # python -O strips assert statements; the corpus must still catch a
    # unitary splitting whose unitaries are off by 1%
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_SELFTEST],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1 False"
    assert "FAIL kernel unitary averages: pair unitarity" in proc.stdout


BASE_MODULES = {"gframes", "gframes.cli", "gframes.core", "gframes.errors", "gframes.io",
                "gframes.kernel", "gframes.tolerances"}
FOOTPRINT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import gframes.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gframes.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "gframes")]))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # one fresh interpreter per case: `import gframes.cli`, then its commands
    plain, weighted, controlled = (write_doc(tmp_path, f"{name}.json", **extra) for name, extra in (
        ("plain", {}), ("weighted", {"weights": [[2.0, 0.0], [1.0, 0.0]]}),
        ("controlled", {"control": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]})))
    generate = ["generate", "--kind", "weighted", "--dim", "2", "--partition", "1,1",
                "--out", str(tmp_path / "generated.json")]
    cases = [
        ([], set()),
        ([["classify", "--in", plain], ["dual", "--in", plain]], set()),
        ([["decompose", "three-onb", "--in", plain]], {"decompositions"}),
        ([["multiply", "--in", plain], ["invert", "canonical", "--in", plain]], {"multipliers"}),
        ([["weighted", "bounds", "--in", weighted], ["controlled", "bounds", "--in", controlled]],
         {"controlled", "multipliers"}),
        ([generate], {"sampling", "controlled", "multipliers"}),
        ([["classify", "--in", weighted]], {"multipliers"}),
        ([["selftest"]], {"controlled", "decompositions", "multipliers", "sampling", "selftest"}),
    ]
    src = str(pathlib.Path(selftest.__file__).parents[1])
    for argvs, added in cases:
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, src, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout)
        assert codes == [0] * len(argvs)
        assert set(loaded) == BASE_MODULES | {f"gframes.{m}" for m in added}, argvs
    package = pathlib.Path(selftest.__file__).parent  # selftest loads every module
    assert set(loaded) == {"gframes"} | {f"gframes.{p.stem}" for p in package.glob("[!_]*.py")}


def test_selftest_fails_on_weights_off_by_one_part_per_million(monkeypatch):
    # 1e-6 relative plus 1e-6j sits inside allclose's default rtol and
    # outside the corpus's 1e-9 bound on the complex weights
    honest = selftest.weight_from_control

    def perturbed(*args, **kwargs):
        weights, is_mult = honest(*args, **kwargs)
        return WeightSequence(weights.values * (1 + 1e-6) + 1e-6j), is_mult

    monkeypatch.setattr(selftest, "weight_from_control", perturbed)
    report = io.StringIO()
    assert not selftest.run_selftest(stream=report)
    assert "FAIL weight extraction: extracted weights" in report.getvalue()


# -- error plumbing ---------------------------------------------------------------------


def test_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "classify", "--in", "/nonexistent/never.json")
    assert code == 3
    assert "input error" in err


def test_unreadable_input_path_exits_3(tmp_path, capsys):
    code, out, err = run(capsys, "classify", "--in", str(tmp_path))
    assert code == 3 and out == ""
    assert "input error" in err


def test_unwritable_out_is_an_output_error_exit_3(tmp_path, capsys, monkeypatch):
    # a directory and a path in a missing directory, through the one --out
    # writer, for an instance, a decomposition and a generated document
    path = write_doc(tmp_path)
    commands = (["dual", "--in", path], ["decompose", "two-parseval", "--in", path],
                ["generate", "--kind", "g_riesz", "--dim", "2", "--partition", "1,1"])
    for out in (str(tmp_path), str(tmp_path / "missing" / "out.json")):
        for argv in commands:
            code, stdout, err = run(capsys, *argv, "--out", out)
            assert (code, stdout) == (3, "")
            assert err.startswith("gframes: output error: ") and "input error" not in err

    class BrokenStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    # stdout is not an --out file: a broken pipe there is not reported as one
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["classify", "--in", path])


def test_overflowing_frame_operator_exits_3(tmp_path, capsys):
    # valid JSON numbers, but S = T* T overflows a double
    huge = [{"dim": 1, "matrix": [[[1e160, 0.0], [0.0, 0.0]]]},
            {"dim": 1, "matrix": [[[0.0, 0.0], [1e160, 0.0]]]}]
    code, out, err = run(capsys, "classify", "--in", write_doc(tmp_path, blocks=huge))
    assert (code, out) == (3, "")
    assert err.startswith("gframes: input error: frame operator S = T* T overflows")


def test_malformed_document_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"schema_version\": 99}")
    code, _, err = run(capsys, "classify", "--in", str(path))
    assert code == 3
    assert "schema_version" in err


def test_bad_usage_exits_3(capsys):
    assert run(capsys, "classify")[0] == 3  # missing required --in
    assert run(capsys, "decompose", "pentagonal", "--in", "x.json")[0] == 3
    assert run(capsys, "no-such-command")[0] == 3


def test_json_and_text_flags_conflict(tmp_path, capsys):
    path = write_doc(tmp_path)
    assert run(capsys, "classify", "--in", path, "--json", "--text")[0] == 3
