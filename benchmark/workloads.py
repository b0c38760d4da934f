"""The four benchmark workloads: inputs, timed pipelines and output checks.

Each workload turns the run's seed into a pool of inputs (`generate`),
verifies with plain numpy that the inputs have the properties they were
drawn for (`certify`), runs one timed operation on an input (`call`) and
checks that operation's outputs against numpy references (`check`,
outside the timed region). Library calls go through module attributes
(`core.classify`, not a bound name) so a tracer that patches the modules
sees them.

An operation builds fresh `GFrame` objects from raw arrays, so nothing
the library might cache on a frame survives from one operation to the
next; within one operation every call shares the same objects.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import numpy as np

from gframes import controlled, core, decompositions, multipliers, sampling

FRACTIONS = (0.5, 0.9, 0.99, 0.999)
RTOL = 1e-8  # relative agreement demanded of bounds against a reference
RECON_TOL = 1e-9  # relative reconstruction residual of a decomposition
RESIDUAL_TOL = 1e-8  # ||M M^-1 - I||_F of a certified inverse


# -- numpy references ----------------------------------------------------------


def stack(blocks) -> np.ndarray:
    return np.vstack(blocks)


def bounds(t: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(t.conj().T @ t)
    return float(eigs[0]), float(eigs[-1])


def opnorm(a) -> float:
    return float(np.linalg.norm(a, 2))


def close(x, y, rtol=RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y), 1.0)


def unitary_defect(t: np.ndarray) -> float:
    """||T* T - I||_F: zero exactly for an isometry (a Parseval stack)."""
    return float(np.linalg.norm(t.conj().T @ t - np.eye(t.shape[1])))


def split(t: np.ndarray, partition) -> list[np.ndarray]:
    return np.vsplit(t, np.cumsum(partition)[:-1])


def row_weights(weights, partition) -> np.ndarray:
    return np.repeat(np.asarray(weights), partition)


def multiplier_ref(weights, frame_t, companion_t, partition) -> np.ndarray:
    """sum_i m_i Lambda_i* Theta_i from stacked matrices."""
    return (frame_t.conj().T * row_weights(weights, partition)) @ companion_t


def _feed(h, value) -> None:
    if isinstance(value, (list, tuple)):
        for v in value:
            _feed(h, v)
    elif isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype}:{a.shape};".encode())
        h.update(a.tobytes())
    else:
        h.update(f"{value!r};".encode())


def digest_items(items) -> str:
    """sha256 over every generated input (keys, shapes, dtypes and bytes)."""
    h = hashlib.sha256()
    for item in items:
        for key in sorted(k for k in item if k != "ref"):
            h.update(f"{key}=".encode())
            _feed(h, item[key])
    return h.hexdigest()


def decomposition_problems(tag, dec, t, scalars, kinds) -> list[str]:
    """Reconstruction, scalars and certified kinds of one decomposition."""
    problems = []
    comps = [stack(c.blocks) for c in dec.components]
    recon = sum(s * c for s, c in zip(dec.scalars, comps))
    if np.linalg.norm(recon - t) > RECON_TOL * (1.0 + np.linalg.norm(t)):
        problems.append(f"{tag}: does not reconstruct its input")
    if len(dec.scalars) != len(scalars) or not all(
            close(a, b) for a, b in zip(dec.scalars, scalars)):
        problems.append(f"{tag}: scalars {dec.scalars} != {scalars}")
    if [k.value for k in dec.component_kinds] != list(kinds):
        problems.append(f"{tag}: kinds {[k.value for k in dec.component_kinds]}")
    for kind, c in zip(kinds, comps):
        if kind in ("GOnb", "NormalizedTight") and unitary_defect(c) > RTOL:
            problems.append(f"{tag}: a {kind} component is not orthonormal")
        if kind == "GRiesz" and (c.shape[0] != c.shape[1]
                                 or np.linalg.svd(c, compute_uv=False)[-1] ** 2 <= 1e-10):
            problems.append(f"{tag}: a GRiesz component is not square invertible")
    return problems


def dual_problems(tag, dual, t, ref_bounds) -> list[str]:
    """The canonical dual reconstructs the identity and has bounds (1/B, 1/A)."""
    d = stack(dual.blocks)
    problems = []
    if np.linalg.norm(d.conj().T @ t - np.eye(t.shape[1])) > RTOL:
        problems.append(f"{tag}: companion is not a dual")
    a, b = ref_bounds
    lo, hi = bounds(d)
    if not (close(lo, 1.0 / b) and close(hi, 1.0 / a)):
        problems.append(f"{tag}: dual bounds ({lo}, {hi}) != (1/B, 1/A) = ({1 / b}, {1 / a})")
    return problems


def inversion_problems(tag, m_ref, m_inv, cert) -> list[str]:
    """Residual against an independent M, and the bracket around ||M^-1||."""
    problems = []
    residual = float(np.linalg.norm(m_ref @ m_inv - np.eye(m_ref.shape[0])))
    if not residual <= RESIDUAL_TOL:
        problems.append(f"{tag}: residual {residual:.3e} > {RESIDUAL_TOL:g}")
    true_norm = 1.0 / np.linalg.svd(m_ref, compute_uv=False)[-1]
    lo, hi = cert.inverse_norm_lower, cert.inverse_norm_upper
    if not (lo * (1 - 1e-9) <= true_norm <= hi * (1 + 1e-9)):
        problems.append(f"{tag}: ||M^-1|| = {true_norm:.9g} outside [{lo:.9g}, {hi:.9g}]")
    return problems


def random_partition(rng, dim: int, n_blocks: int) -> list[int]:
    """A composition of dim into n_blocks positive parts."""
    cuts = np.sort(rng.choice(np.arange(1, dim), n_blocks - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [dim]])).astype(int).tolist()


def _perturbation(rng, partition, dim, target_upper) -> np.ndarray:
    """Stacked blocks whose optimal upper frame bound is exactly target_upper."""
    raw = rng.standard_normal((sum(partition), dim)) + 1j * rng.standard_normal(
        (sum(partition), dim))
    upper = core.frame_bounds(core.GFrame(dim, tuple(split(raw, partition)))).upper
    return raw * np.sqrt(target_upper / upper)


class Workload:
    """A pool of seeded inputs and one timed operation per input.

    `tail_pct` is the latency percentile reported as the tail: fixed per
    workload, with at least ten samples beyond it at the sizes used here,
    so that runs of a faster commit report the same percentile.
    """

    name = ""
    tail_pct = None

    def __init__(self, tiny: bool = False, root=None, workdir=None):
        self.root = root
        self.workdir = workdir

    def digest(self, items) -> str:
        return digest_items(items)


class CertifyError(RuntimeError):
    """A generated input lacks the property it was drawn for."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertifyError(message)


# -- wide_frames ---------------------------------------------------------------


class WideFrames(Workload):
    name = "wide_frames"
    tail_pct = 75

    def __init__(self, tiny: bool = False, **kw):
        super().__init__(tiny, **kw)
        self.dim = 6 if tiny else 32
        self.n_blocks = 20 if tiny else 2000
        self.pool = 2 if tiny else 8

    def generate(self, rng, records=None) -> list[dict]:
        items = []
        for _ in range(self.pool):
            partition = rng.integers(1, 3, self.n_blocks).tolist()
            frame = sampling.random_gframe(rng, self.dim, partition)
            control = sampling.random_control_commuting(rng, frame)
            items.append({
                "partition": np.array(partition),
                "blocks": list(frame.blocks),
                "control": control.matrix,
                "weights": sampling.random_positive_weights(rng, self.n_blocks),
                "weights_alt": sampling.random_positive_weights(rng, self.n_blocks),
            })
        return items

    def certify(self, items) -> None:
        for item in items:
            t = stack(item["blocks"])
            a, b = bounds(t)
            _require(a > 1e-6, "wide frame is not a frame")
            s, c = t.conj().T @ t, item["control"]
            _require(np.linalg.norm(s @ c - c @ s) <= 1e-9 * (1 + opnorm(s) * opnorm(c)),
                     "control does not commute with S")
            _require(np.linalg.eigvalsh((c + c.conj().T) / 2)[0] > 1e-6,
                     "control is not positive")
            item["ref"] = {"t": t, "bounds": (a, b)}

    def call(self, item, records=None):
        frame = core.GFrame(self.dim, tuple(item["blocks"]))
        control = controlled.ControlOperator(item["control"])
        w = item["weights"]
        report = core.classify(frame)
        dual = core.canonical_dual(frame)
        defect = core.duality_defect(frame, dual)
        m_mat = multipliers.multiplier(w, frame, dual)
        m_bound = multipliers.multiplier_norm_bound(w, frame, dual)
        suite = controlled.weighted_equivalence_suite(frame, w, item["weights_alt"])
        equiv = controlled.controlled_equivalence(frame, control)
        dec = decompositions.decompose_two_parseval(frame)
        return report, dual, defect, m_mat, m_bound, suite, equiv, dec

    def check(self, item, out) -> list[str]:
        report, dual, defect, m_mat, m_bound, suite, equiv, dec = out
        t, (a, b) = item["ref"]["t"], item["ref"]["bounds"]
        partition = item["partition"]
        problems = []
        if not (report.is_g_frame and close(report.bounds.lower, a)
                and close(report.bounds.upper, b)):
            problems.append("classify: bounds or verdict wrong")
        problems += dual_problems("canonical_dual", dual, t, (a, b))
        if not defect <= RTOL:
            problems.append(f"duality_defect {defect:.3e}")
        m_ref = multiplier_ref(item["weights"], t, stack(dual.blocks), partition)
        if np.linalg.norm(m_mat - m_ref) > RTOL * (1 + np.linalg.norm(m_ref)):
            problems.append("multiplier differs from the reference")
        if not (opnorm(m_ref) <= m_bound * (1 + 1e-9)
                and close(m_bound, np.sqrt(b / a) * np.max(item["weights"]))):
            problems.append("multiplier_norm_bound wrong")
        if not all(suite):
            problems.append(f"weighted_equivalence_suite {suite}")
        if equiv != (True, True):
            problems.append(f"controlled_equivalence {equiv}")
        norm = opnorm(t)
        problems += decomposition_problems(
            "decompose_two_parseval", dec, t, (norm / 2, norm / 2),
            ("NormalizedTight", "NormalizedTight"))
        return problems


# -- square_spectral -----------------------------------------------------------


class SquareSpectral(Workload):
    name = "square_spectral"
    tail_pct = 90

    def __init__(self, tiny: bool = False, **kw):
        super().__init__(tiny, **kw)
        self.dims = (5, 6, 8) if tiny else (16, 32, 48)
        self.blocks = (2, 4) if tiny else (4, 8)
        self.pool = 3 if tiny else 9

    def generate(self, rng, records=None) -> list[dict]:
        items = []
        for k in range(self.pool):
            dim = self.dims[k % len(self.dims)]
            n = int(rng.integers(self.blocks[0], self.blocks[1] + 1))
            partition = random_partition(rng, dim, n)
            frame = sampling.random_g_riesz(rng, dim, partition)
            onb = sampling.random_g_onb(rng, dim, partition)
            coisometry = sampling.random_coisometry(rng, dim // 2, dim)
            control = sampling.random_control_commuting(rng, frame)
            eig_frame, eig_control, true_w = sampling.eigenblock_control_instance(
                rng, partition)
            items.append({
                "partition": np.array(partition),
                "blocks": list(frame.blocks),
                "onb": list(onb.blocks),
                "coisometry": coisometry,
                "control": control.matrix,
                "eig_blocks": list(eig_frame.blocks),
                "eig_control": eig_control.matrix,
                "true_w": true_w,
            })
        return items

    def certify(self, items) -> None:
        for item in items:
            t = stack(item["blocks"])
            _require(t.shape[0] == t.shape[1], "g-Riesz family is not square")
            a, b = bounds(t)
            _require(a > 1e-6, "g-Riesz family is singular")
            _require(unitary_defect(stack(item["onb"])) <= 1e-10, "g-ONB is not unitary")
            k = item["coisometry"]
            _require(np.linalg.norm(k @ k.conj().T - np.eye(k.shape[0])) <= 1e-10,
                     "K K* != I")
            s, c = t.conj().T @ t, item["control"]
            _require(np.linalg.norm(s @ c - c @ s) <= 1e-9 * (1 + opnorm(s) * opnorm(c)),
                     "control does not commute with S")
            ce = item["eig_control"]
            for blk, w in zip(item["eig_blocks"], item["true_w"]):
                syn = blk.conj().T
                _require(np.linalg.norm(ce @ syn - w * syn) <= 1e-9 * (1 + np.linalg.norm(syn)),
                         "control is not scalar on a block range")
            item["ref"] = {"t": t, "bounds": (a, b)}

    def call(self, item, records=None):
        dim = int(sum(item["partition"]))
        frame = core.GFrame(dim, tuple(item["blocks"]))
        onb = core.GFrame(dim, tuple(item["onb"]))
        control = controlled.ControlOperator(item["control"])
        eig_frame = core.GFrame(dim, tuple(item["eig_blocks"]))
        eig_control = controlled.ControlOperator(item["eig_control"])
        return (
            core.classify(frame),
            core.canonical_dual(frame),
            decompositions.decompose_three_gonb(frame),
            decompositions.decompose_two_gonb_combo(frame),
            decompositions.decompose_two_parseval(frame),
            decompositions.decompose_gonb_plus_griesz(frame),
            decompositions.coisometry_image(onb, item["coisometry"]),
            controlled.controlled_equivalence(frame, control),
            controlled.weight_from_control(eig_frame, eig_control),
        )

    def check(self, item, out) -> list[str]:
        report, dual, three, two, parseval, onb_riesz, image, equiv, extracted = out
        t, (a, b) = item["ref"]["t"], item["ref"]["bounds"]
        problems = []
        if not (report.is_g_riesz and close(report.bounds.lower, a)
                and close(report.bounds.upper, b)):
            problems.append("classify: bounds or verdict wrong")
        problems += dual_problems("canonical_dual", dual, t, (a, b))
        norm = opnorm(t)
        problems += decomposition_problems("decompose_three_gonb", three, t,
                                           (norm,) * 3, ("GOnb",) * 3)
        problems += decomposition_problems("decompose_two_gonb_combo", two, t,
                                           (norm / 2,) * 2, ("GOnb",) * 2)
        problems += decomposition_problems("decompose_two_parseval", parseval, t,
                                           (norm / 2,) * 2, ("NormalizedTight",) * 2)
        problems += decomposition_problems("decompose_gonb_plus_griesz", onb_riesz, t,
                                           (1.0, 1.0), ("GOnb", "GRiesz"))
        k = item["coisometry"]
        expected = stack(item["onb"]) @ k.conj().T
        got = stack(image.blocks)
        if got.shape != expected.shape or np.linalg.norm(got - expected) > RTOL:
            problems.append("coisometry_image: wrong blocks")
        elif unitary_defect(got) > RTOL:
            problems.append("coisometry_image: image is not Parseval")
        if equiv != (True, True):
            problems.append(f"controlled_equivalence {equiv}")
        weights, is_multiplier = extracted
        if not (is_multiplier and np.allclose(weights.values.real, item["true_w"],
                                              rtol=0, atol=1e-8)):
            problems.append("weight_from_control: wrong weights")
        return problems


# -- near_threshold ------------------------------------------------------------


class NearThreshold(Workload):
    name = "near_threshold"
    tail_pct = 75

    def __init__(self, tiny: bool = False, **kw):
        super().__init__(tiny, **kw)
        self.dim = 4 if tiny else 8
        self.fractions = (0.5, 0.9) if tiny else FRACTIONS
        self.pool = 2 if tiny else 12

    def _partition(self, rng) -> list[int]:
        while True:
            sizes = rng.integers(2, 5, int(rng.integers(3, 5))).tolist()
            if sum(sizes) >= self.dim:
                return sizes

    def generate(self, rng, records=None) -> list[dict]:
        items = []
        for _ in range(self.pool):
            partition = self._partition(rng)
            n, dim = len(partition), self.dim
            frame = sampling.random_gframe(rng, dim, partition)
            dual = core.canonical_dual(frame)
            fb = core.frame_bounds(frame)
            a_l, b_l = fb.lower, fb.upper
            b_dual = core.frame_bounds(dual).upper
            t, d = stack(frame.blocks), stack(dual.blocks)
            g = sampling.random_unitary(rng, dim) * rng.uniform(0.5, 2.0, dim)
            routes = [("P33", None, rng.uniform(0.5, 2.0, n), g)]
            for f in self.fractions:
                # P34 and C35: max|1 - m_i| pinned so the contraction is f
                for tag, lam in (("P34", f / np.sqrt(b_l * b_dual)),
                                 ("C35", f * np.sqrt(a_l / b_l))):
                    u = rng.uniform(-1.0, 1.0, n)
                    u[rng.integers(n)] = rng.choice([-1.0, 1.0])
                    routes.append((tag, f, 1.0 + lam * u, None))
                # P36: (b/a) sqrt(B_diff B_Lambda) / A_Lambda = f binds
                w = rng.uniform(0.9, 1.1, n)
                ratio = w.min() / w.max()
                b_diff = (f * a_l * ratio) ** 2 / b_l
                routes.append(("P36", f, w, t + _perturbation(rng, partition, dim, b_diff)))
                # P37: mu = f A^2 / B;  P38: mu = f / B
                w = rng.uniform(0.7, 1.4, n)
                delta = _perturbation(rng, partition, dim, f * a_l**2 / b_l)
                routes.append(("P37", f, w, (t + delta) / row_weights(w, partition)[:, None]))
                w = rng.uniform(0.7, 1.4, n)
                delta = _perturbation(rng, partition, dim, f / b_l)
                routes.append(("P38", f, w, (d + delta) / row_weights(w, partition)[:, None]))
            items.append({
                "partition": np.array(partition),
                "blocks": list(frame.blocks),
                "routes": routes,
            })
        return items

    @staticmethod
    def checked_ratio(tag, w, extra, t, d, partition) -> float | None:
        """The checked quantity over its threshold, from numpy alone."""
        a_l, b_l = bounds(t)
        if tag == "P33":
            return None
        if tag == "P34":
            return np.max(np.abs(1 - w)) * np.sqrt(b_l * bounds(d)[1])
        if tag == "C35":
            return np.max(np.abs(1 - w)) / np.sqrt(a_l / b_l)
        if tag == "P36":
            b_diff = bounds(extra - t)[1]
            return max(b_diff * b_l / a_l**2,
                       (w.max() / w.min()) * np.sqrt(b_diff * b_l) / a_l)
        pert = extra * row_weights(w, partition)[:, None] - (t if tag == "P37" else d)
        mu = bounds(pert)[1]
        return mu * b_l / a_l**2 if tag == "P37" else mu * b_l

    def certify(self, items) -> None:
        for item in items:
            t = stack(item["blocks"])
            a, _ = bounds(t)
            _require(a > 1e-6, "base family is not a frame")
            s_inv = np.linalg.inv(t.conj().T @ t)
            d = t @ s_inv
            for tag, f, w, extra in item["routes"]:
                ratio = self.checked_ratio(tag, w, extra, t, d, item["partition"])
                _require(ratio is None or abs(ratio - f) <= 1e-9,
                         f"{tag} sits at {ratio} of its threshold, not {f}")
            item["ref"] = {"t": t, "d": d}

    def call(self, item, records=None):
        dim = self.dim
        partition = item["partition"]
        frame = core.GFrame(dim, tuple(item["blocks"]))
        dual = core.canonical_dual(frame)
        results = []
        for tag, _, w, extra in item["routes"]:
            if tag == "P33":
                out = multipliers.invert_via_bijection(w, frame, extra)
            elif tag == "P34":
                out = multipliers.invert_dual_neumann(w, frame, dual)
            elif tag == "C35":
                out = multipliers.invert_canonical_dual(w, frame)
            else:
                companion = core.GFrame(dim, tuple(split(extra, partition)))
                if tag == "P36":
                    out = multipliers.invert_bessel_perturb(w, frame, companion)
                elif tag == "P37":
                    out = multipliers.invert_mu_perturb(w, frame, companion)
                else:
                    out = multipliers.invert_dual_mu_perturb(w, frame, dual, companion)
            results.append(out)
        return results

    def check(self, item, out) -> list[str]:
        t, d = item["ref"]["t"], item["ref"]["d"]
        partition = item["partition"]
        problems = []
        for (tag, f, w, extra), (m_inv, cert) in zip(item["routes"], out):
            if tag == "P33":
                m_ref = multiplier_ref(w, t, t @ extra, partition)
            elif tag in ("P34", "C35"):
                m_ref = multiplier_ref(w, t, d, partition)
            else:
                m_ref = multiplier_ref(w, t, extra, partition)
            problems += inversion_problems(f"{tag}@{f}", m_ref, m_inv, cert)
        return problems


# -- cli_roundtrip -------------------------------------------------------------


def child_env(root) -> dict:
    """Environment for CLI children: the checkout's sources on the path.

    The BLAS thread settings are inherited from the benchmark's own
    environment, which run.py fixes before numpy is imported.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def run_cli(root, argv, records=None, workdir=None, timeout=120):
    """One `gframes` invocation, returning (exit code, stdout).

    With `records` set the command runs under cli_child.py, which traces
    it and writes what it saw to a file; that record is appended to
    `records`.
    """
    env = child_env(root)
    if records is None:
        cmd = [sys.executable, "-m", "gframes.cli", *argv]
    else:
        record_path = os.path.join(workdir, "child-trace.json")
        cmd = [sys.executable, CHILD, record_path, *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if records is not None:
        with open(record_path, encoding="utf-8") as handle:
            records.append(json.load(handle))
        os.remove(record_path)
    return proc.returncode, proc.stdout


def canonical_digest(path) -> str:
    """sha256 of the compact sorted-key JSON form, as `instance_digest` defines it."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _matrix(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node])


def read_frame(path):
    """Stacked analysis matrix (and control, if any) of an instance file."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    t = np.vstack([_matrix(b["matrix"]) for b in doc["blocks"]])
    control = _matrix(doc["control"]) if "control" in doc else None
    return t, control


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    tail_pct = 75
    kinds = {"riesz": ("g_riesz", "2,2,2"), "weighted": ("weighted", "3,2,2"),
             "controlled": ("controlled_commuting", "3,3,2")}

    commands = ("classify", "dual", "decompose", "invert", "weighted", "controlled")
    dim = 6

    def generate(self, rng, records=None) -> list[dict]:
        files = {}
        for key, (kind, partition) in self.kinds.items():
            path = os.path.join(self.workdir, f"{key}.json")
            seed = int(rng.integers(0, 2**31))
            code, _ = run_cli(self.root, [
                "generate", "--kind", kind, "--dim", str(self.dim),
                "--partition", partition, "--seed", str(seed), "--out", path],
                records, self.workdir)
            _require(code == 0, f"gframes generate --kind {kind} exited {code}")
            files[key] = path
        dual_out = os.path.join(self.workdir, "dual-out.json")
        argvs = {
            "classify": ["classify", "--in", files["riesz"]],
            "dual": ["dual", "--in", files["riesz"], "--out", dual_out],
            "decompose": ["decompose", "three-onb", "--in", files["riesz"]],
            "invert": ["invert", "canonical", "--in", files["riesz"]],
            "weighted": ["weighted", "equiv", "--in", files["weighted"]],
            "controlled": ["controlled", "bounds", "--in", files["controlled"]],
        }
        source = {"classify": "riesz", "dual": "riesz", "decompose": "riesz",
                  "invert": "riesz", "weighted": "weighted", "controlled": "controlled"}
        return [{"command": c, "argv": argvs[c] + ["--json"],
                 "input": files[source[c]], "dual_out": dual_out}
                for c in self.commands]

    def certify(self, items) -> None:
        for item in items:
            t, control = read_frame(item["input"])
            a, b = bounds(t)
            _require(a > 1e-6, f"{item['input']} is not a frame")
            item["ref"] = {"t": t, "bounds": (a, b), "control": control,
                           "digest": canonical_digest(item["input"])}

    def digest(self, items) -> str:
        return hashlib.sha256("".join(
            sorted({i["ref"]["digest"] for i in items})).encode()).hexdigest()

    def call(self, item, records=None):
        return run_cli(self.root, item["argv"], records, self.workdir)

    def check(self, item, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"{item['command']}: exit code {code}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"{item['command']}: report is not JSON"]
        ref = item["ref"]
        t, (a, b) = ref["t"], ref["bounds"]
        problems = []
        if report.get("instance_digest") != ref["digest"]:
            problems.append(f"{item['command']}: instance_digest does not match the input")
        command = item["command"]
        if command == "classify":
            if not (report["is_g_riesz"] and close(report["bounds"]["lower"], a)
                    and close(report["bounds"]["upper"], b)):
                problems.append("classify: bounds or verdict wrong")
        elif command == "dual":
            d, _ = read_frame(item["dual_out"])
            lo, hi = report["dual_bounds"]["lower"], report["dual_bounds"]["upper"]
            if not (close(lo, 1 / b) and close(hi, 1 / a)):
                problems.append("dual: reported bounds are not (1/B, 1/A)")
            if np.linalg.norm(d.conj().T @ t - np.eye(t.shape[1])) > RTOL:
                problems.append("dual: written family is not a dual")
        elif command == "decompose":
            norm = opnorm(t)
            if not (report["component_kinds"] == ["GOnb"] * 3
                    and report["reconstruction_residual"] <= RECON_TOL * (1 + np.linalg.norm(t))
                    and all(close(s[0], norm) and s[1] == 0.0 for s in report["scalars"])):
                problems.append("decompose three-onb: kinds, scalars or residual wrong")
        elif command == "invert":
            # weights default to ones, so M = T* D = I and ||M^-1|| = 1
            lo, hi = report["inverse_norm_bracket"]
            if not (report["residual"] <= RESIDUAL_TOL and lo * (1 - 1e-9) <= 1.0 <= hi * (1 + 1e-9)):
                problems.append("invert canonical: residual or bracket wrong")
        elif command == "weighted":
            if not (report["unanimous"] and all(report["statements"].values())):
                problems.append("weighted equiv: statements not all true")
        else:
            s_c = (t.conj().T @ t) @ ref["control"].conj().T
            eigs = np.linalg.eigvalsh((s_c + s_c.conj().T) / 2)
            if not (report["is_controlled_frame"] and close(report["lower"], eigs[0])
                    and close(report["upper"], eigs[-1])):
                problems.append("controlled bounds: wrong bounds or verdict")
        return problems


WORKLOADS = {w.name: w for w in (WideFrames, SquareSpectral, NearThreshold, CliRoundtrip)}
