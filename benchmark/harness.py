"""Drive one workload: set up, time a closed loop, check, report.

One client, closed loop: the next operation starts only after the
previous one has finished and its outputs have been checked. Checks run
outside the timed region. With `trace` off no wrapper is installed at
all; with `trace` on, the tracer is installed for the whole run and
alternate operations are recorded, so the untraced ones in between give
the tracing overhead.

The host this benchmark was tuned on (2 shared x86_64 CPUs) changes
speed by up to 2x over tens of seconds as other tenants load it. So
every time the benchmark reports is scaled to one reference speed:
`SpeedClock` runs a fixed calibration kernel (pure Python plus small
LAPACK and matmul calls, no gframes code) between operations, and a
time t measured around instant m is reported as
t * CAL_REF_S / (median of the 9 calibrations nearest to m). Raw times
are kept in the details line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import numpy as np

import gframes
from gframes import selftest
from tracing import ROUTES, Stats, Tracer, wrapped_names
from workloads import WORKLOADS, CertifyError, child_env

SETUP_REPS = 3
SELFTEST_REPS = 11
EXTRA_IMPORT_PROBES = 12  # import_ms is the median over these and the setup reps'
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOOP_LAYERS = ("kernel", "core", "decompositions", "multipliers", "controlled", "io", "cli")
LINALG_CALLS = ("eigh", "eigvalsh", "svd", "inv", "qr")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import gframes.cli; "
                "print(repr(time.perf_counter() - t))")

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB", "import_ms": "ms",
    "selftest_s": "s",
}


def layer_units() -> dict:
    units = {"trace.op_ms": "ms", "trace.overhead_frac": "frac"}
    for layer in LOOP_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_frac": "frac",
                      f"{layer}.self_frac": "frac"})
    units.update({f"linalg.{n}_calls": "count" for n in LINALG_CALLS})
    units.update({"linalg.busy_frac": "frac", "linalg.computed_gflop": "GFLOP",
                  "multipliers.series_terms": "count"})
    units.update({f"multipliers.{r}.busy_frac": "frac" for r in ROUTES.values()})
    units.update({
        "multipliers.min_margin": "frac", "io.parse_frac": "frac",
        "io.serialize_frac": "frac", "io.parse_bytes": "bytes",
        "cli.import_s": "s", "cli.compute_frac": "frac",
        "sampling.busy_s": "s", "selftest.busy_s": "s",
    })
    return units


PER_LAYER_UNITS = layer_units()


def environment() -> dict:
    """Where the numbers were taken."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_runtime": openblas_threads(),
        "machine": platform.machine(),
    }


def openblas_threads() -> int | None:
    """The thread count OpenBLAS reports, when numpy links OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_probe(root) -> float:
    """Seconds to import gframes.cli in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                         env=child_env(root), capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip())


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


CAL_REF_S = 0.0025  # the calibration kernel's time at full speed on that host
CAL_EVERY_S = 0.05  # one calibration per this much timed work
CAL_NEAREST = 9


class SpeedClock:
    """Measures the host's current speed with a fixed calibration kernel."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._h = self._a + self._a.conj().T
        self._rows = [rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
                      for _ in range(150)]
        self.marks = []  # (instant, kernel seconds)
        self.since = 0.0  # timed work since the last calibration

    def _kernel(self) -> None:
        # the kinds of work the workloads do: interpreter loops, per-block
        # small products, and small LAPACK calls
        acc = 0
        for i in range(30000):
            acc += i * i
        total = np.zeros((24, 24), dtype=complex)
        for row in self._rows:
            total += row.conj().T @ row
        m = self._h
        for _ in range(8):
            np.linalg.eigvalsh(self._h)
            m = (m @ self._a) / 50.0

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.marks.append(((start + end) / 2, end - start))
        self.since = 0.0

    def measure(self, fn, *args):
        """Run fn(*args) timed; returns (result, Sample)."""
        if self.since >= CAL_EVERY_S or not self.marks:
            self.calibrate(max(1, int(self.since / CAL_EVERY_S)))
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.since += end - start
        return result, Sample((start + end) / 2, end - start)

    def factor(self, instant: float) -> float:
        nearest = sorted(self.marks, key=lambda m: abs(m[0] - instant))[:CAL_NEAREST]
        return CAL_REF_S / statistics.median(s for _, s in nearest)

    def scaled(self, samples) -> list[float]:
        """Reference-speed seconds of each sample."""
        return [s.seconds * self.factor(s.instant) for s in samples]


class Sample(NamedTuple):
    """One timed interval: its midpoint instant and its raw length."""

    instant: float
    seconds: float


class Run:
    """State of one benchmark run."""

    def __init__(self, name, seed, seconds, trace, tiny, root):
        self.root = str(root)
        self.seed, self.seconds, self.trace = seed, seconds, trace
        work_parent = os.path.join(self.root, ".bench_work")
        os.makedirs(work_parent, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent)
        self.workload = WORKLOADS[name](tiny=tiny, root=self.root, workdir=self.workdir)
        self.tracer = Tracer() if trace else None
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.probes, self.selftest_walls, self.selftest_busy = [], [], []

    def count(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problems[:3])

    def bracketed(self, fn, *args):
        """Time fn(*args) with calibrations just before and after it."""
        self.clock.calibrate(CAL_NEAREST // 2 + 1)
        result, sample = self.clock.measure(fn, *args)
        self.clock.calibrate(CAL_NEAREST // 2 + 1)
        return result, sample

    # -- phases ---------------------------------------------------------------

    def setup(self):
        """Import, generate and certify SETUP_REPS times; all must agree.

        Returns the inputs, their digest, and per rep the import Sample
        (child-measured seconds at the parent's instant), the generate
        and certify Sample, and the sampling layer's busy time.
        """
        imports, gens, sampling_busy, digests = [], [], [], []
        items = None
        for _ in range(SETUP_REPS):
            seconds, sample = self.bracketed(import_probe, self.root)
            imports.append(Sample(sample.instant, seconds))
            records = [] if self.trace else None
            if self.tracer:
                self.tracer.stats = Stats()
            items, sample = self.bracketed(self._generate, records)
            gens.append(sample)
            digests.append(self.workload.digest(items))
            if self.tracer:
                busy = self.tracer.stats.busy["sampling"]
                busy += sum(r["stats"]["busy"].get("sampling", 0.0) for r in records)
                sampling_busy.append(Sample(sample.instant, busy))
        if len(set(digests)) != 1:
            raise CertifyError("the same seed generated different inputs")
        return items, digests[0], imports, gens, sampling_busy

    def _generate(self, records):
        with self.recording(True):
            items = self.workload.generate(np.random.default_rng(self.seed), records)
        self.workload.certify(items)
        return items

    @contextlib.contextmanager
    def recording(self, on: bool):
        """Record spans (when tracing) only inside this block."""
        if self.tracer:
            self.tracer.recording = on
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.recording = False

    def probe_import(self) -> None:
        seconds, sample = self.bracketed(import_probe, self.root)
        self.probes.append(Sample(sample.instant, seconds))

    def selftest(self) -> None:
        """The selftest corpus once, in process; it must pass."""
        outer = self.tracer.stats if self.tracer else None
        if self.tracer:
            self.tracer.stats = Stats()
        log = io.StringIO()
        ok, sample = self.bracketed(self._selftest, log)
        self.selftest_walls.append(sample)
        if self.tracer:
            busy = self.tracer.stats.busy["selftest"]
            self.selftest_busy.append(Sample(sample.instant, busy))
            self.tracer.stats = outer
        self.count([] if ok else [f"selftest failed: {log.getvalue()[-300:]}"])

    def _selftest(self, log):
        with self.recording(True):
            return selftest.run_selftest(stream=log)

    def one(self, item, traced: bool):
        """Time one operation, then check it. Returns (Sample, child records)."""
        records = [] if traced and self.workload.name == "cli_roundtrip" else None
        out, sample = self.clock.measure(self._call, item, records, traced)
        if isinstance(out, Exception):
            self.count([f"{type(out).__name__}: {out}"])
        else:
            self.count(self.workload.check(item, out))
        return sample, records or []

    def _call(self, item, records, traced):
        with self.recording(traced):
            try:
                return self.workload.call(item, records)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                return exc

    def loop(self, items):
        """Closed loop until the timed operations add up to `seconds`.

        The selftest reps and the extra import probes are spread evenly
        over the loop rather than run in one block, so that they sample
        the same spread of host load as the operations do.
        """
        plain, traced, records = [], [], []
        self.one(items[0], traced=False)  # warm-up: lazy imports, first-call costs
        if self.tracer:
            self.tracer.stats = Stats()
        due = sorted([(i / SELFTEST_REPS, self.selftest) for i in range(SELFTEST_REPS)]
                     + [(i / EXTRA_IMPORT_PROBES, self.probe_import)
                        for i in range(EXTRA_IMPORT_PROBES)], key=lambda d: d[0])
        side_tasks = [task for _, task in due]
        done = 0
        k = 0
        elapsed = 0.0
        while elapsed < self.seconds:
            while done < len(side_tasks) and elapsed >= self.seconds * done / len(side_tasks):
                side_tasks[done]()
                done += 1
            index, sweep = k % len(items), k // len(items)
            # traced runs alternate per sweep so each input is seen both ways
            is_traced = self.trace and (index + sweep) % 2 == 1
            sample, recs = self.one(items[index], is_traced)
            (traced if is_traced else plain).append(sample)
            for r in recs:
                r["instant"] = sample.instant
            records += recs
            elapsed += sample.seconds
            k += 1
        for task in side_tasks[done:]:
            task()
        self.clock.calibrate(2)
        return plain, traced, records

    def close(self):
        if self.tracer:
            self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)


def e2e_metrics(clock, plain, imports, gens, probes, selftest_walls, tail_pct) -> dict:
    lat = np.asarray(clock.scaled(plain))
    setup = [i + g for i, g in zip(clock.scaled(imports), clock.scaled(gens))]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": lat.size / lat.sum(),
        "latency_p50_ms": float(np.median(lat)) * 1e3,
        "latency_tail_ms": float(np.percentile(lat, tail_pct)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "import_ms": statistics.median(clock.scaled(imports + probes)) * 1e3,
        "selftest_s": statistics.median(clock.scaled(selftest_walls)),
    }


def layer_metrics(clock, stats: Stats, records, plain, traced, sampling_busy,
                  imports, selftest_busy) -> dict:
    n = len(traced)
    op_time = sum(s.seconds for s in traced)  # shares use raw times of the same ops
    for record in records:
        stats.merge(record["stats"])

    def frac(seconds):
        return seconds / op_time

    traced_mean = statistics.fmean(clock.scaled(traced))
    out = {
        "trace.op_ms": traced_mean * 1e3,
        "trace.overhead_frac": traced_mean / statistics.fmean(clock.scaled(plain)) - 1.0,
    }
    for layer in LOOP_LAYERS:
        out[f"{layer}.calls"] = stats.calls.get(layer, 0) / n
        out[f"{layer}.busy_frac"] = frac(stats.busy.get(layer, 0.0))
        out[f"{layer}.self_frac"] = frac(stats.self_time.get(layer, 0.0))
    for name in LINALG_CALLS:
        out[f"linalg.{name}_calls"] = stats.linalg_calls.get(name, 0) / n
    out["linalg.busy_frac"] = frac(stats.busy.get("linalg", 0.0))
    out["linalg.computed_gflop"] = stats.gflop / n
    out["multipliers.series_terms"] = stats.series_terms / n
    for route in ROUTES.values():
        out[f"multipliers.{route}.busy_frac"] = frac(stats.route_busy.get(route, 0.0))
    # margins lie in (0, 1]; 1.0 means no inversion hypothesis was checked
    out["multipliers.min_margin"] = 1.0 if stats.min_margin is None else stats.min_margin
    out["io.parse_frac"] = frac(stats.parse_s)
    out["io.serialize_frac"] = frac(stats.serialize_s)
    out["io.parse_bytes"] = stats.parse_bytes / n
    imports = imports + [Sample(r["instant"], r["import_s"]) for r in records]
    out["cli.import_s"] = statistics.median(clock.scaled(imports))
    out["cli.compute_frac"] = frac(sum(r["compute_s"] for r in records))
    out["sampling.busy_s"] = statistics.median(clock.scaled(sampling_busy))
    out["selftest.busy_s"] = statistics.median(clock.scaled(selftest_busy))
    return out


def run_workload(name, seed, seconds, trace, tiny=False, root=None) -> dict:
    """Run one workload; returns {"result": <last line>, "details": {...}}."""
    root = root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = Run(name, seed, seconds, trace, tiny, root)
    try:
        if run.tracer:
            run.tracer.install()
        run.clock.calibrate(3)
        items, digest, imports, gens, sampling_busy = run.setup()
        plain, traced, records = run.loop(items)
    finally:
        run.close()
    left = wrapped_names() + [n for r in records for n in r["left_wrapped"]]
    if left:
        raise RuntimeError(f"tracer left wrappers installed: {left[:5]}")
    clock, tail = run.clock, run.workload.tail_pct
    if trace:
        values = layer_metrics(clock, run.tracer.stats, records, plain, traced,
                               sampling_busy, imports + run.probes, run.selftest_busy)
        units = PER_LAYER_UNITS
    else:
        values = e2e_metrics(clock, plain, imports, gens, run.probes, run.selftest_walls,
                             tail)
        units = E2E_UNITS
    latencies = [s.seconds for s in plain]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    speeds = [CAL_REF_S / s for _, s in clock.marks]
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one client",
        "inputs_digest": digest,
        "gframes": os.path.dirname(gframes.__file__),
        "environment": environment(),
        "operations_timed": len(plain) + len(traced),
        "failed_frac": run.failed / run.attempted,
        "latency_tail_percentile": tail,
        "samples_beyond_tail": int(np.sum(np.asarray(latencies) > np.percentile(latencies, tail))),
        "raw_latency_p50_ms": float(np.median(latencies)) * 1e3,
        "raw_ops_per_s": len(latencies) / sum(latencies),
        "speed_vs_reference": {"min": min(speeds), "median": statistics.median(speeds),
                               "max": max(speeds), "calibrations": len(speeds)},
        "setup_reps": SETUP_REPS, "selftest_reps": SELFTEST_REPS,
        "import_probes": SETUP_REPS + EXTRA_IMPORT_PROBES,
        "problems": run.problems,
    }
    return {"result": result, "details": details}


def report(outcome) -> None:
    """Print every metric with its unit, the details, then the result line."""
    result, details = outcome["result"], outcome["details"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"trace {details['trace']}  inputs {details['inputs_digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<32} {details['failed_frac']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"  tail percentile p{details['latency_tail_percentile']} over "
          f"{details['operations_timed']} operations, "
          f"{details['samples_beyond_tail']} beyond it")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
