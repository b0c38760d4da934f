"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces every public function of the gframes layer
modules, and the `__post_init__` of their public dataclasses, with a
wrapper that records one span per call. Because `from .core import ...`
binds names into the importing module, the wrapper is patched under
every name in every loaded gframes module (and the package namespace)
that refers to the original. `numpy.linalg` entry points are wrapped the
same way, as the pseudo-layer `linalg`. `uninstall()` puts every
original back; `wrapped_names()` lets a caller verify that it did.

Spans are only recorded while `recording` is true, so the benchmark can
keep its own checks out of the figures. A layer's busy time counts only
its outermost spans; its self time is each span's duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "kernel", "core", "decompositions", "multipliers", "controlled",
    "io", "sampling", "selftest", "cli",
)
LINALG = ("eigh", "eigvalsh", "svd", "inv", "qr", "norm")

ROUTES = {
    "invert_via_bijection": "P33",
    "invert_dual_neumann": "P34",
    "invert_canonical_dual": "C35",
    "invert_bessel_perturb": "P36",
    "invert_mu_perturb": "P37",
    "invert_dual_mu_perturb": "P38",
}
PARSE = {"parse_instance", "load_instance"}
SERIALIZE = {"serialize_instance", "dump_instance", "instance_digest",
             "instance_document"}


def _flops(name, args, kwargs):
    """Textbook real-flop counts (Golub & Van Loan); complex counts 4x."""
    if name == "norm":
        return 0.0
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return 0.0
    m, n = a.shape[-2], a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    k, big = min(m, n), max(m, n)
    if name == "eigvalsh":
        real = 4.0 * n**3 / 3.0
    elif name == "eigh":
        real = 9.0 * n**3
    elif name == "inv":
        real = 2.0 * n**3
    elif name == "qr":
        real = 2.0 * big * k**2 - 2.0 * k**3 / 3.0
    else:  # svd
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        real = (6.0 * big * k**2 + 11.0 * k**3) if uv else (
            4.0 * big * k**2 - 4.0 * k**3 / 3.0)
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    return batch * factor * real


def _margin(cert) -> float | None:
    """1 - checked/threshold for the binding hypothesis of a certificate."""
    hv = cert.hypothesis_values
    if "mu" in hv:  # P37: mu < A^2/B;  P38: mu < 1/B
        if "A_Lambda" in hv:
            return 1.0 - hv["mu"] * hv["B_Lambda"] / hv["A_Lambda"] ** 2
        return 1.0 - hv["mu"] * hv["B_Lambda"]
    if "contraction" in hv:  # P34 and C35: contraction < 1
        return 1.0 - hv["contraction"]
    if "B_diff" in hv:  # P36: both inequalities, take the tighter
        a_l, b_l, b_diff = hv["A_Lambda"], hv["B_Lambda"], hv["B_diff"]
        first = b_diff * b_l / a_l**2
        second = (hv["b"] / hv["a"]) * (b_diff * b_l) ** 0.5 / a_l
        return 1.0 - max(first, second)
    return None  # P33 is exact: no threshold


class Stats:
    """What one stretch of recording saw, summed over its spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.linalg_calls = defaultdict(int)
        self.gflop = 0.0
        self.route_busy = defaultdict(float)
        self.series_terms = 0
        self.min_margin = None
        self.parse_s = 0.0
        self.serialize_s = 0.0
        self.parse_bytes = 0

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls), "busy": dict(self.busy),
            "self_time": dict(self.self_time),
            "linalg_calls": dict(self.linalg_calls), "gflop": self.gflop,
            "route_busy": dict(self.route_busy),
            "series_terms": self.series_terms, "min_margin": self.min_margin,
            "parse_s": self.parse_s, "serialize_s": self.serialize_s,
            "parse_bytes": self.parse_bytes,
        }

    def merge(self, other: dict) -> None:
        """Add a `to_dict()` record, e.g. one written by a child process."""
        for key in ("calls", "busy", "self_time", "linalg_calls", "route_busy"):
            target = getattr(self, key)
            for name, value in other[key].items():
                target[name] += value
        self.gflop += other["gflop"]
        self.series_terms += other["series_terms"]
        if other["min_margin"] is not None:
            self.min_margin = (other["min_margin"] if self.min_margin is None
                               else min(self.min_margin, other["min_margin"]))
        self.parse_s += other["parse_s"]
        self.serialize_s += other["serialize_s"]
        self.parse_bytes += other["parse_bytes"]


class Tracer:
    """Install span wrappers on the gframes layers and numpy.linalg."""

    def __init__(self):
        self.stats = Stats()
        self.recording = False
        self._patches = []  # (namespace, attribute, original)
        self._stack = []  # [child time] per open span
        self._depth = defaultdict(int)

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by direct child spans
            tracer._stack.append(frame)
            tracer._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                tracer._close(layer, name, elapsed, frame[0], args, kwargs)
            tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, layer, name, elapsed, child_time, args, kwargs):
        s = self.stats
        if self._stack:
            self._stack[-1][0] += elapsed
        s.self_time[layer] += elapsed - child_time
        if self._depth[layer] == 0:
            s.busy[layer] += elapsed
        if layer == "linalg":
            s.linalg_calls[name] += 1
            s.gflop += _flops(name, args, kwargs) / 1e9
            return
        s.calls[layer] += 1
        if name in ROUTES:
            s.route_busy[ROUTES[name]] += elapsed
        elif layer == "io" and self._depth["io"] == 0:
            if name in PARSE:
                s.parse_s += elapsed
            elif name in SERIALIZE:
                s.serialize_s += elapsed

    def _observe(self, name, args, result):
        s = self.stats
        if name in ROUTES:
            cert = result[1]
            s.series_terms += cert.series_terms_for_tol
            margin = _margin(cert)
            if margin is not None:
                s.min_margin = margin if s.min_margin is None else min(s.min_margin, margin)
        elif name == "parse_instance" and args:
            s.parse_bytes += len(args[0])

    # -- patching -------------------------------------------------------------

    def _targets(self):
        """(layer, name, original) for every public callable to wrap."""
        for layer in LAYERS:
            module = sys.modules.get(f"gframes.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, name, obj
        linalg = sys.modules["numpy.linalg"]
        for name in LINALG:
            yield "linalg", name, getattr(linalg, name)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "gframes" or n.startswith("gframes."))]
        namespaces += [sys.modules["numpy.linalg"]]
        inner = sys.modules.get("numpy.linalg._linalg")
        if inner is not None:
            namespaces.append(inner)  # norm(ord=2) calls svd through here
        for layer, name, original in self._targets():
            wrapper = self._wrap(layer, name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, original, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(f"gframes.{layer}")
            if module is None:
                continue
            for name, cls in vars(module).items():
                if (inspect.isclass(cls) and not name.startswith("_")
                        and cls.__module__ == module.__name__
                        and dataclasses.is_dataclass(cls)
                        and "__post_init__" in vars(cls)):
                    original = vars(cls)["__post_init__"]
                    self._patch(cls, "__post_init__", original,
                                self._wrap(layer, f"{name}.__post_init__", original))

    def _patch(self, ns, attr, original, wrapper) -> None:
        if isinstance(ns, type):
            setattr(ns, attr, wrapper)
        else:
            vars(ns)[attr] = wrapper
        self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        self.recording = False
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()


def wrapped_names() -> list[str]:
    """Every name in gframes or numpy.linalg that holds a span wrapper now."""
    found = []
    spaces = [(n, m) for n, m in list(sys.modules.items())
              if m is not None and (n == "gframes" or n.startswith("gframes.")
                                    or n.startswith("numpy.linalg"))]
    for mod_name, module in spaces:
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__wrapped__") and getattr(value, "__qualname__", "").startswith(
                    "Tracer._wrap"):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                post = vars(value).get("__post_init__")
                if post is not None and getattr(post, "__qualname__", "").startswith("Tracer._wrap"):
                    found.append(f"{mod_name}.{attr}.__post_init__")
    return found
