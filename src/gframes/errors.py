"""Exception taxonomy.

Two branches matter to callers. InputError covers malformed data (bad
shapes, bad encodings, non-finite entries); the CLI maps it to exit
code 3. HypothesisError covers inputs that are well formed but violate
a mathematical hypothesis of the requested operation (not a frame, not
a dual pair, a contraction condition that fails, ...). It is one type
with no subclasses: each raise states its failed condition as
`inequality`, and callers tell failures apart by that text. The CLI
maps it to exit code 2 and prints `hypothesis violated: <inequality>
[k=v, ...]`.
"""

from __future__ import annotations


class GFrameError(Exception):
    """Base class for every error raised by this package."""


class InputError(GFrameError):
    """Malformed input: wrong shapes, bad encodings, non-finite entries."""


class HypothesisError(GFrameError):
    """Well-formed input that fails a mathematical hypothesis.

    `inequality` states the failed condition in the vocabulary of the
    result that needs it ("lambda < sqrt(A_Lambda/B_Lambda)", "C = C*",
    ...). `values` carries the measured quantities: where the site
    compares a computed number with a threshold, both.
    """

    def __init__(self, inequality: str, values: dict[str, float] | None = None):
        self.inequality = inequality
        self.values = dict(values or {})
        detail = ", ".join(f"{k}={v:.6g}" for k, v in self.values.items())
        msg = f"hypothesis violated: {inequality}"
        if detail:
            msg += f" [{detail}]"
        super().__init__(msg)

    def __reduce__(self):  # args hold the message, not the constructor's arguments
        return type(self), (self.inequality, self.values)


# -- input errors (CLI exit 3) ------------------------------------------------

class NonFinite(InputError):
    """An array contains NaN or infinite entries."""


class ShapeMismatch(InputError):
    """Array dimensions are inconsistent with the operation."""


class BadPartition(InputError):
    """A block partition does not tile the vector list it should tile."""


class NonPositiveInput(InputError):
    """A quantity required to be a positive real is not."""


class InfeasibleKind(InputError):
    """The requested instance kind cannot exist for the given dimensions."""


class SchemaError(InputError):
    """A JSON instance document violates the schema.

    Carries the JSON path of the offending node so scripts can point at it.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- runtime errors (CLI exit 1) ----------------------------------------------

class MaxIterations(GFrameError):
    """An operator series did not reach the tolerance within the term cap."""
