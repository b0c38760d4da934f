"""Shared helpers: random matrix builders and the acceptance summary hook."""

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


def random_hermitian(rng, dim):
    b = complex_gaussian(rng, dim, dim)
    return (b + b.conj().T) / 2


def identity_gframe(dim=2):
    """One 1 x dim block per coordinate: blocks [1 0 ...], [0 1 ...], ..."""
    eye = np.eye(dim)
    return gframes.GFrame(dim, tuple(eye[i : i + 1] for i in range(dim)))
