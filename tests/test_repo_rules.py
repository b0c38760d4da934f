"""Repository rules: scans of the source tree, one test per rule.

The library is parsed once per run and the nine syntax rules share that
parse. Every finding is a `file:line ...` line relative to the scanned
root, or for a homes table a `TABLE decision: module function` line, and
a failing test prints the findings one per line. Each rule is also run
on a copy of the tree, or of the homes tables, with one planted
violation, and must report exactly that violation.

The unused-name rule reads `tests/` too, so this file is part of its
corpus and every whole word in it counts as a use. Planted names are
therefore built at run time, and a library function is named here only
where other code uses it anyway.
"""

import ast
import json
import math
import pathlib
import re
import shutil
import statistics
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = pathlib.Path("src/gframes")
CORPUS = ("src/gframes", "tests", "scripts", "benchmark")
# loaded after `import gframes.cli`, so a by-name copy of another module's
# public function escapes the benchmark tracer's uninstall
LATE_LOADED = ("multipliers", "controlled", "decompositions", "sampling")


def parse_library(root: pathlib.Path) -> dict:
    """Every module under `root`/src/gframes, recursively: relative path -> AST."""
    return {path.relative_to(root): ast.parse(path.read_text())
            for path in sorted((root / LIBRARY).rglob("*.py"))}


def _top_level(library: dict) -> dict:
    """The modules directly in the package (a `glob`, not an `rglob`)."""
    return {path: tree for path, tree in library.items() if path.parent == LIBRARY}


# -- the rules -------------------------------------------------------------------


def assert_statements(library: dict) -> list[str]:
    """An `assert` in the library: `python -O` skips it."""
    return [f"{path}:{node.lineno}" for path, tree in library.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def unused_names(root: pathlib.Path, library: dict) -> list[str]:
    """A top-level function or class, or a method, that no code uses.

    A use is a whole-word mention anywhere in the corpus, minus every
    `def name`/`class name` in it. Counting every word and every
    definition once gives the same counts as one pair of searches per name.
    """
    corpus = "\n".join(path.read_text() for top in CORPUS
                       for path in sorted((root / top).rglob("*.py")))
    words = Counter(re.findall(r"\w+", corpus))
    definitions = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", corpus))
    found = []
    for path, tree in _top_level(library).items():
        for node in tree.body:
            for d in [node, *node.body] if isinstance(node, ast.ClassDef) else [node]:
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not (d.name.startswith("__") and d.name.endswith("__"))
                        and words[d.name] - definitions[d.name] < 1):
                    found.append(f"{path}:{d.lineno} {d.name}")
    return found


def _tolerance(node) -> bool:
    """A TAU_* name or attribute, or a float literal with 0 < |x| < 1e-6."""
    return (isinstance(node, ast.Name) and node.id.startswith("TAU_")
            or isinstance(node, ast.Attribute) and node.attr.startswith("TAU_")
            or isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6)


def bare_tolerance_comparisons(library: dict) -> list[str]:
    """A comparison with a tolerance outside `tolerances.Margin`."""
    found = []
    for path, tree in _top_level(library).items():
        if path.name in ("tolerances.py", "selftest.py"):  # the policy, and the independent oracle
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(_tolerance(n) for n in ast.walk(node)):
                found.append(f"{path}:{node.lineno} {ast.unparse(node)}")
    return found


def by_name_imports(library: dict) -> list[str]:
    """A late-loaded module importing another module's public function by name."""
    modules = _top_level(library)
    public = {path.stem: {node.name for node in tree.body
                          if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
              for path, tree in modules.items()}
    found = []
    for name in LATE_LOADED:
        path = LIBRARY / f"{name}.py"
        for node in ast.walk(modules[path]):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in public:
                found += [f"{path}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in public[node.module]]
    return found


def _conjugated(node):
    """X when `node` is `X.conj()`, else None."""
    if (isinstance(node, ast.Call) and not node.args and isinstance(node.func, ast.Attribute)
            and node.func.attr == "conj"):
        return node.func.value
    return None


def _transposed(node):
    """X when `node` is `X.T`, else None."""
    return node.value if isinstance(node, ast.Attribute) and node.attr == "T" else None


def hand_rolled_grams(library: dict) -> list[str]:
    """`A.conj().T @ A` or `A.T @ A.conj()` on one operand A: X* X belongs to
    `kernel.gram`. `kernel.py` and the independent oracle `selftest.py` are exempt."""
    found = []
    for path, tree in library.items():
        if path.name in ("kernel.py", "selftest.py"):
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                continue
            left = _transposed(node.left)
            pairs = [(_conjugated(left), node.right), (left, _conjugated(node.right))]
            if any(a is not None and b is not None and ast.dump(a) == ast.dump(b)
                   for a, b in pairs):
                found.append(f"{path}:{node.lineno}")
    return found


def _calls(method: str):
    """A call of `<anything>.method(...)`."""
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == method)


def _reads(name: str):
    """A read of `name`, bare or as an attribute; its definition is a store."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         and isinstance(node.ctx, ast.Load)
                         or isinstance(node, ast.Attribute) and node.attr == name)


def _scaled_defect(node) -> bool:
    """A `defect(value, tau, scale)` call: three arguments, or a `scale=` keyword."""
    return _calls("defect")(node) and (
        len(node.args) > 2 or any(k.arg == "scale" for k in node.keywords))


# every decision whose threshold carries a scale, and the Parseval and
# duality verdicts: (how to spot it, the (module, function) pairs that may make it)
DECISION_HOMES = {
    "above_floor": (_calls("above_floor"), {("core.py", "_classify_bounds"),
                                            ("kernel.py", "hermitian_eigenvalues"),
                                            ("kernel.py", "require_invertible")}),
    "TAU_HERM": (_reads("TAU_HERM"), {("kernel.py", "self_adjoint")}),
    "scaled defect": (_scaled_defect, {("tolerances.py", "relative"),
                                       ("core.py", "_classify_bounds")}),
    # the Parseval test, and tightness in the frame verdict
    "TAU_CLASS": (_reads("TAU_CLASS"), {("core.py", "_parseval_margin"),
                                        ("core.py", "_classify_bounds")}),
    "TAU_DUAL": (_reads("TAU_DUAL"), {("core.py", "_duality_margin"),
                                      # the oracle sizes an inexact dual by it
                                      ("selftest.py", "check_inversions")}),
}


# every computation or read of the singular vectors or eigenvectors of a
# frame: only where they are used. Bounds and verdicts need the
# eigenvalues alone, and S^-1 reads the SVD of T, so nothing computes the
# eigenvectors of S.
# Every explicit inverse too: a square dual solves with T*, whose error
# grows as k(T), and no S^-1 solve may stand in for it unseen.
EIGENVECTOR_HOMES = {
    "eigh": (_calls("eigh"), set()),
    "_svd": (_reads("_svd"), {("core.py", "canonical_dual"), ("core.py", "_inverse_frame_operator"),
                              ("decompositions.py", "_pair_split"),
                              ("decompositions.py", "decompose_three_gonb"),
                              ("decompositions.py", "decompose_gonb_plus_griesz"),
                              ("multipliers.py", "_weighted_inverse")}),
    "inv": (_calls("inv"), {("core.py", "canonical_dual"), ("core.py", "_cholesky_qr2_svd"),
                            ("multipliers.py", "invert_via_bijection"),
                            # the oracles
                            ("selftest.py", "_check_inversion"), ("selftest.py", "check_inversions"),
                            ("selftest.py", "check_invertible_lower_bound")}),
}


# every JSON text the library writes: one pretty layout for reports, --out
# files and instance documents, and the compact form an instance digest hashes
JSON_HOMES = {
    "json dump": (lambda node: _calls("dump")(node) or _calls("dumps")(node),
                  {("io.py", "json_text"), ("io.py", "serialize_instance")}),
}


def stray_decisions(library: dict, table: dict = DECISION_HOMES) -> list[str]:
    """A spotted node outside its homes in `table`: by default, a
    decision outside its `DECISION_HOMES`."""
    found = []
    for path, tree in library.items():
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for decision, (spot, homes) in table.items():
            at_home = {id(node) for home in functions if (path.name, home.name) in homes
                       for node in ast.walk(home)}
            found += [f"{path}:{node.lineno} {decision}" for node in ast.walk(tree)
                      if spot(node) and id(node) not in at_home]
    return found


def stale_homes(library: dict, tables: dict) -> list[str]:
    """A (module, function) home in one of the named `tables` that names no
    function defined in that module: a deleted function's exemption."""
    defined = {(path.name, node.name) for path, tree in library.items()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    return [f"{table} {decision}: {module} {function}"
            for table, homes_of in tables.items() for decision, (_, homes) in homes_of.items()
            for module, function in sorted(homes) if (module, function) not in defined]


HOME_TABLES = {"DECISION_HOMES": DECISION_HOMES, "EIGENVECTOR_HOMES": EIGENVECTOR_HOMES,
               "JSON_HOMES": JSON_HOMES}


def _spread(xs) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _sign(metric: dict) -> float:
    """+1 where a higher value of the metric is better."""
    return 1.0 if metric["better"] == "higher" else -1.0


def metric_summary(metric: dict, parent: list, change: list) -> dict:
    """The summary entry of one end-to-end metric over paired runs."""
    return {
        "unit": metric["unit"],
        "parent": _spread(parent), "change": _spread(change),
        "change_better_pairs": sum(_sign(metric) * (c - p) > 0 for p, c in zip(parent, change)),
        "median_ratio_change_over_parent": statistics.median(change) / statistics.median(parent),
    }


def _mismatches(got, want, where) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if math.isclose(got, want, rel_tol=1e-9) else [f"{where}: {got} != {want}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def bench_evidence(root: pathlib.Path) -> list[str]:
    """A BENCH_*.json that is incomplete, does not recompute from its runs,
    or does not support its claim."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    errors = []
    for file in sorted(root.glob("BENCH_*.json")):
        bench = json.loads(file.read_text())
        path = file.relative_to(root)
        claim = bench.get("claim", "").split()
        if len(claim) != 2 or claim[0] not in workloads or claim[1] not in end_to_end:
            errors.append(f"{path}: claim {bench.get('claim')!r} is not "
                          f"'<workload> <end-to-end metric>'")
            claim = None
        for run in bench["runs"] + bench.get("trace", []):
            if run["returncode"] != 0 or run["result"]["failed"] != 0:
                errors.append(f"{path}: {run['workload']} {run['side']} seed {run['seed']}: "
                              f"returncode {run['returncode']}, failed {run['result']['failed']}")
        by_pair = {}  # workload -> pair -> side -> result
        for run in bench["runs"]:
            sides = by_pair.setdefault(run["workload"], {}).setdefault(run["pair"], {})
            if run["side"] in sides:
                errors.append(f"{path}: {run['workload']} pair {run['pair']} "
                              f"repeats side {run['side']}")
            sides[run["side"]] = run["result"]
        for workload, pairs in sorted(by_pair.items()):
            for pair, sides in sorted(pairs.items()):
                if sorted(sides) != ["change", "parent"]:
                    errors.append(f"{path}: {workload} pair {pair} has sides {sorted(sides)}")
        for workload, summary in bench["summary"].items():
            results = [sides for _, sides in sorted(by_pair.get(workload, {}).items())
                       if sorted(sides) == ["change", "parent"]]
            want = {"pairs": len(results),
                    "failed": {side: [r[side]["failed"] for r in results]
                               for side in ("parent", "change")}}
            for name in sorted(summary.keys() - want.keys()):
                if name not in end_to_end or not results:
                    errors.append(f"{path}: {workload} summary entry {name} is not a declared "
                                  f"end-to-end metric with runs")
                    continue
                want[name] = metric_summary(
                    end_to_end[name],
                    [r["parent"]["metrics"][name]["value"] for r in results],
                    [r["change"]["metrics"][name]["value"] for r in results])
            errors += [f"{path}: summary.{workload}{m}" for m in _mismatches(summary, want, "")]
            if claim and workload == claim[0]:
                entry = want.get(claim[1])
                if want["pairs"] < 10 or entry is None:
                    errors.append(f"{path}: claimed workload {workload} has {want['pairs']} pairs "
                                  f"and {'an' if entry else 'no'} entry for {claim[1]}, "
                                  f"need >= 10 and one")
                else:
                    ratio = entry["median_ratio_change_over_parent"]
                    if 2 * entry["change_better_pairs"] <= want["pairs"]:
                        errors.append(f"{path}: claimed {workload} {claim[1]} is better in only "
                                      f"{entry['change_better_pairs']} of {want['pairs']} pairs")
                    if _sign(end_to_end[claim[1]]) * (ratio - 1.0) <= 0:
                        errors.append(f"{path}: claimed {workload} {claim[1]} median ratio {ratio} "
                                      f"is on the wrong side of 1")
        if claim and claim[0] not in bench["summary"]:
            errors.append(f"{path}: claimed workload {claim[0]} has no summary")
    return errors


# -- the rules on this tree ------------------------------------------------------


@pytest.fixture(scope="module")
def library():
    return parse_library(ROOT)


def test_no_assert_in_library(library):
    found = assert_statements(library)
    assert not found, "\n".join(found)


def test_every_library_name_is_used(library):
    found = unused_names(ROOT, library)
    assert not found, "\n".join(found)


def test_tolerance_decisions_go_through_margin(library):
    found = bare_tolerance_comparisons(library)
    assert not found, "\n".join(found)


def test_late_loaded_modules_call_through_the_module(library):
    found = by_name_imports(library)
    assert not found, "\n".join(found)


def test_one_home_for_gram_products(library):
    found = hand_rolled_grams(library)
    assert not found, "\n".join(found)


def test_decision_homes(library):
    found = stray_decisions(library)
    assert not found, "\n".join(found)


def test_eigenvectors_only_where_read(library):
    found = stray_decisions(library, EIGENVECTOR_HOMES)
    assert not found, "\n".join(found)


def test_one_json_layout(library):
    found = stray_decisions(library, JSON_HOMES)
    assert not found, "\n".join(found)


def test_every_home_is_a_defined_function(library):
    found = stale_homes(library, HOME_TABLES)
    assert not found, "\n".join(found)


def test_bench_evidence_recomputes_and_supports_its_claim():
    found = bench_evidence(ROOT)
    assert not found, "\n".join(found)


# -- each rule on a copy with one planted violation ------------------------------


@pytest.fixture
def tree_copy(tmp_path):
    """A copy of everything the rules read."""
    for top in CORPUS:
        shutil.copytree(ROOT / top, tmp_path / top,
                        ignore=shutil.ignore_patterns("__pycache__", ".*"))
    for path in [ROOT / "BENCHMARK.json", *ROOT.glob("BENCH_*.json")]:
        shutil.copy(path, tmp_path)
    return tmp_path


def _append(root: pathlib.Path, module: str, text: str) -> int:
    """Append `text` to a library module; return the number of its first line."""
    path = root / LIBRARY / module
    source = path.read_text()
    path.write_text(source + text)
    return source.count("\n") + 1


def _replace_line(root: pathlib.Path, module: str, honest: str, planted: str) -> int:
    """Replace the one line `honest` of a library module; return its number."""
    path = root / LIBRARY / module
    source = path.read_text()
    assert source.count(honest) == 1
    path.write_text(source.replace(honest, planted))
    return source[:source.index(honest)].count("\n") + 1


def _planted_name() -> str:
    # built at run time: a literal here would be a use of the name
    return "_".join(("", "never", "called", "helper"))


def test_planted_assert(tree_copy):
    line = _append(tree_copy, "kernel.py", "assert True\n")
    assert assert_statements(parse_library(tree_copy)) == [f"src/gframes/kernel.py:{line}"]


@pytest.mark.parametrize("also_defined_in_tests", [False, True])
def test_planted_unused_helper(tree_copy, also_defined_in_tests):
    name = _planted_name()
    line = _append(tree_copy, "kernel.py", f"\n\ndef {name}():\n    return None\n")
    if also_defined_in_tests:  # a `def` is not a use, wherever it is
        (tree_copy / "tests" / "test_planted.py").write_text(f"def {name}():\n    return 0\n")
    assert unused_names(tree_copy, parse_library(tree_copy)) == [
        f"src/gframes/kernel.py:{line + 2} {name}"]


def test_planted_bare_tolerance_comparison(tree_copy):
    line = _replace_line(tree_copy, "core.py", "    if not Margin.above_floor(lower):\n",
                         "    if bounds.lower <= TAU_RANK:\n")
    assert bare_tolerance_comparisons(parse_library(tree_copy)) == [
        f"src/gframes/core.py:{line} bounds.lower <= TAU_RANK"]


def test_planted_rank_floor_decision(tree_copy):
    line = _append(tree_copy, "multipliers.py", "_ = Margin.above_floor(0.0)\n")
    assert stray_decisions(parse_library(tree_copy)) == [
        f"src/gframes/multipliers.py:{line} above_floor"]


def test_planted_self_adjoint_decision(tree_copy):
    line = _replace_line(
        tree_copy, "controlled.py", "        self_adjoint = kernel.self_adjoint(m).holds\n",
        "        self_adjoint = Margin.defect(kernel.frobenius_norm(m - m.conj().T), "
        "TAU_HERM).holds\n")
    assert stray_decisions(parse_library(tree_copy)) == [f"src/gframes/controlled.py:{line} TAU_HERM"]


def test_planted_scaled_defect(tree_copy):
    line = _replace_line(
        tree_copy, "decompositions.py",
        "    if not Margin.relative(residual, TAU_RECON, kernel.frobenius_norm(target)):\n",
        "    if not Margin.defect(residual, TAU_RECON, 1.0 + kernel.frobenius_norm(target)):\n")
    assert stray_decisions(parse_library(tree_copy)) == [
        f"src/gframes/decompositions.py:{line} scaled defect"]


def test_planted_coisometry_parseval_decision(tree_copy):
    line = _replace_line(
        tree_copy, "decompositions.py",
        "    defect = core._parseval_margin(k_mat @ k_mat.conj().T)\n",
        "    defect = Margin.defect(kernel.frobenius_norm(k_mat @ k_mat.conj().T - np.eye(2)), "
        "TAU_CLASS)\n")
    assert stray_decisions(parse_library(tree_copy)) == [
        f"src/gframes/decompositions.py:{line} TAU_CLASS"]


def test_planted_duality_decision(tree_copy):
    check = ('    if not {}:\n'
             '        raise NotDual("the companion family is not a dual of the frame")\n')
    line = _replace_line(
        tree_copy, "multipliers.py",
        "    delta, _, is_dual = core._duality_margin(frame, dual)\n" + check.format("is_dual"),
        "    delta = core.duality_defect(frame, dual)\n"
        + check.format("Margin.defect(delta, TAU_DUAL)"))
    assert stray_decisions(parse_library(tree_copy)) == [
        f"src/gframes/multipliers.py:{line + 1} TAU_DUAL"]


def test_planted_eigh(tree_copy):
    line = _append(tree_copy, "multipliers.py", "_ = np.linalg.eigh(np.eye(2))\n")
    assert stray_decisions(parse_library(tree_copy), EIGENVECTOR_HOMES) == [
        f"src/gframes/multipliers.py:{line} eigh"]


def test_planted_inverse_of_s(tree_copy):
    # a dual through S^-1, whose error grows as k(S), not k(T)
    line = _replace_line(
        tree_copy, "multipliers.py", "    dual = core.canonical_dual(frame)\n",
        "    dual = frame._with_rows(frame.analysis_matrix() @ np.linalg.inv(frame._operator))\n")
    assert stray_decisions(parse_library(tree_copy), EIGENVECTOR_HOMES) == [
        f"src/gframes/multipliers.py:{line} inv"]


def test_planted_spectrum_read(tree_copy):
    # bounds read off the SVD of T, if it ran first
    line = _replace_line(tree_copy, "core.py",
                         "        return _spectrum_bounds(np.linalg.eigvalsh(self._operator), "
                         "self._operator)\n",
                         "        return _spectrum_bounds(self._svd[1][::-1] ** 2, self._operator)\n")
    assert stray_decisions(parse_library(tree_copy), EIGENVECTOR_HOMES) == [
        f"src/gframes/core.py:{line} _svd"]


def test_planted_json_layout(tree_copy):
    # a report laid out beside io.json_text
    line = _append(tree_copy, "cli.py", "json.dumps(report)\n")
    assert stray_decisions(parse_library(tree_copy), JSON_HOMES) == [
        f"src/gframes/cli.py:{line} json dump"]


def test_planted_stale_home(library):
    # a deleted kernel helper's eigh exemption left behind; the name is built
    # at run time, as no module defines it
    spot, homes = EIGENVECTOR_HOMES["eigh"]
    stale = ("kernel.py", "_".join(("psd", "sqrt")))
    tables = {**HOME_TABLES, "EIGENVECTOR_HOMES": {**EIGENVECTOR_HOMES,
                                                   "eigh": (spot, homes | {stale})}}
    assert stale_homes(library, tables) == [f"EIGENVECTOR_HOMES eigh: kernel.py {stale[1]}"]


def test_planted_by_name_import(tree_copy):
    line = _append(tree_copy, "multipliers.py", "from .core import frame_bounds\n")
    assert by_name_imports(parse_library(tree_copy)) == [
        f"src/gframes/multipliers.py:{line} frame_bounds"]


def test_planted_hand_rolled_gram(tree_copy):
    line = _replace_line(tree_copy, "core.py", "            s = gram(self._stacked)\n",
                         "            s = t.conj().T @ t\n")
    assert hand_rolled_grams(parse_library(tree_copy)) == [f"src/gframes/core.py:{line}"]


@pytest.mark.parametrize("product", ["a.conj().T @ a", "x.y.T @ x.y.conj()"])
def test_planted_hand_rolled_gram_either_side(tree_copy, product):
    line = _append(tree_copy, "multipliers.py", f"_ = {product}\n")
    assert hand_rolled_grams(parse_library(tree_copy)) == [f"src/gframes/multipliers.py:{line}"]


def _better_pairs_off_by_one(bench):
    entry = bench["summary"]["cli_roundtrip"]["import_ms"]
    entry["change_better_pairs"] -= 1
    n = entry["change_better_pairs"]
    return [f"BENCH_15.json: summary.cli_roundtrip.import_ms.change_better_pairs: {n} != {n + 1}"]


def _ratio_scaled(bench):
    entry = bench["summary"]["cli_roundtrip"]["import_ms"]
    ratio = entry["median_ratio_change_over_parent"]
    entry["median_ratio_change_over_parent"] = ratio * 1.01
    return [f"BENCH_15.json: summary.cli_roundtrip.import_ms.median_ratio_change_over_parent: "
            f"{ratio * 1.01} != {ratio}"]


def _q3_scaled(bench):
    spread = bench["summary"]["cli_roundtrip"]["import_ms"]["parent"]
    q3 = spread["q3"]
    spread["q3"] = q3 * 1.5
    return [f"BENCH_15.json: summary.cli_roundtrip.import_ms.parent.q3: {q3 * 1.5} != {q3}"]


def _one_run_failed(bench):
    run = next(r for r in bench["runs"] if r["workload"] == "cli_roundtrip")
    run["result"]["failed"] = 1
    recorded = bench["summary"]["cli_roundtrip"]["failed"][run["side"]]
    recomputed = list(recorded)
    pairs = sorted({r["pair"] for r in bench["runs"] if r["workload"] == "cli_roundtrip"})
    recomputed[pairs.index(run["pair"])] = 1
    return [f"BENCH_15.json: cli_roundtrip {run['side']} seed {run['seed']}: "
            "returncode 0, failed 1",
            f"BENCH_15.json: summary.cli_roundtrip.failed.{run['side']}: "
            f"{recorded!r} != {recomputed!r}"]


def _undeclared_metric_claimed(bench):
    bench["claim"] = "cli_roundtrip throughput"
    return ["BENCH_15.json: claim 'cli_roundtrip throughput' is not "
            "'<workload> <end-to-end metric>'"]


def _nine_pairs(bench):
    # a summary that recomputes from the nine pairs left, so only the pair count fails
    last = max(r["pair"] for r in bench["runs"] if r["workload"] == "cli_roundtrip")
    bench["runs"] = [r for r in bench["runs"]
                     if not (r["workload"] == "cli_roundtrip" and r["pair"] == last)]
    pairs = sorted({r["pair"] for r in bench["runs"] if r["workload"] == "cli_roundtrip"})
    side = {(r["pair"], r["side"]): r["result"]
            for r in bench["runs"] if r["workload"] == "cli_roundtrip"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    summary = bench["summary"]["cli_roundtrip"]
    summary["pairs"] = len(pairs)
    summary["failed"] = {s: [side[p, s]["failed"] for p in pairs] for s in ("parent", "change")}
    for name in summary.keys() - {"pairs", "failed"}:
        summary[name] = metric_summary(
            metrics[name], *([side[p, s]["metrics"][name]["value"] for p in pairs]
                             for s in ("parent", "change")))
    return ["BENCH_15.json: claimed workload cli_roundtrip has 9 pairs and an entry for "
            "import_ms, need >= 10 and one"]


@pytest.mark.parametrize("alter", [_better_pairs_off_by_one, _ratio_scaled, _q3_scaled,
                                   _one_run_failed, _undeclared_metric_claimed, _nine_pairs],
                         ids=lambda alter: alter.__name__.strip("_"))
def test_planted_bench_evidence(tree_copy, alter):
    path = tree_copy / "BENCH_15.json"
    bench = json.loads(path.read_text())
    expected = alter(bench)
    path.write_text(json.dumps(bench))
    assert bench_evidence(tree_copy) == expected
