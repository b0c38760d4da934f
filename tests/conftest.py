"""Shared helpers: random matrix builders, a factorization counter, a
value-object check and the acceptance summary hook."""

import copy
import pickle
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings

import gframes

settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("numeric")


ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(ok: bool, number: int, description: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS, key=_criterion_number):
            terminalreporter.write_line(line)


def _criterion_number(line: str) -> int:
    return int(line.split("criterion ")[1].split(":")[0])


def complex_gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unit(rng, dim):
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return f / np.linalg.norm(f)


def identity_gframe(dim=2):
    """One 1 x dim block per coordinate: blocks [1 0 ...], [0 1 ...], ..."""
    eye = np.eye(dim)
    return gframes.GFrame(dim, tuple(eye[i : i + 1] for i in range(dim)))


def count_factorizations(monkeypatch) -> Counter:
    """Count np.linalg eigh, eigvalsh, svd, qr and inv calls made from now
    on; a matrix 2-norm counts as the SVD it runs inside numpy."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "svd", "qr", "inv"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kw):
            calls[_name] += 1
            return _original(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    original_norm = np.linalg.norm

    def norm(a, ord=None, *args, **kw):
        if ord in (2, -2) and np.ndim(a) == 2:
            calls["svd"] += 1
        return original_norm(a, ord, *args, **kw)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def check_value_object(value, twin, changed):
    """Equal twins compare and hash equally, a changed entry breaks ==, and
    pickle and deepcopy copies compare equal with read-only arrays."""
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert changed != value
    for same in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert same == value
        arrays = [a for a in vars(same).values() if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
