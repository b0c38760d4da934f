"""Exception taxonomy.

Two branches matter to callers. InputError covers malformed data (bad
shapes, bad encodings, non-finite entries); the CLI maps it to exit
code 3. HypothesisError covers inputs that are well formed but violate
a mathematical hypothesis of the requested operation (not a frame, not
a dual pair, a contraction condition that fails, ...); the CLI maps it
to exit code 2 and reports which inequality broke.
"""

from __future__ import annotations


class GFrameError(Exception):
    """Base class for every error raised by this package."""


class InputError(GFrameError):
    """Malformed input: wrong shapes, bad encodings, non-finite entries."""


class HypothesisError(GFrameError):
    """Well-formed input that fails a mathematical hypothesis."""


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


# -- hypothesis errors (CLI exit 2) -------------------------------------------

class NotAFrame(HypothesisError):
    """The family has no positive lower frame bound."""


class NotGRiesz(HypothesisError):
    """The family is not a g-Riesz basis."""


class NotGOnb(HypothesisError):
    """The family is not a g-orthonormal basis."""


class NotCoisometry(HypothesisError):
    """K·K* differs from the identity beyond tolerance."""


class NotDual(HypothesisError):
    """The two families do not reconstruct the identity."""


class DimensionMismatch(HypothesisError):
    """The block dimensions make the requested construction impossible."""


class NormTooLarge(HypothesisError):
    """An operator norm exceeds the bound the construction needs."""


class MixedSigns(HypothesisError):
    """A weight sequence is not real with one strict sign."""


class SingularG(HypothesisError):
    """The bijection operator supplied is not invertible."""


class Singular(HypothesisError):
    """A matrix required to be invertible is numerically singular."""


class NotEigenRelation(HypothesisError):
    """A control operator does not act as a scalar on some block range."""


class ZeroBlock(HypothesisError):
    """A zero block makes the requested scalar undefined."""


class ZeroWeight(HypothesisError):
    """A weight that must be bounded away from zero vanishes."""


class NonPositiveWeight(HypothesisError):
    """A weight sequence required to be strictly positive is not."""


class NotSelfAdjoint(HypothesisError):
    """An operator required to be self-adjoint is not, beyond tolerance."""


class HypothesisFailed(HypothesisError):
    """A named inequality required by an invertibility result fails.

    The `inequality` attribute states the condition in the vocabulary of
    the certificate ("lambda < sqrt(A_Lambda/B_Lambda)", ...); `values`
    carries the measured quantities.
    """

    def __init__(self, inequality: str, values: dict[str, float] | None = None):
        self.inequality = inequality
        self.values = dict(values or {})
        detail = ", ".join(f"{k}={v:.6g}" for k, v in self.values.items())
        msg = f"hypothesis violated: {inequality}"
        if detail:
            msg += f" [{detail}]"
        super().__init__(msg)


# -- runtime errors (CLI exit 1) ----------------------------------------------

class MaxIterations(GFrameError):
    """An operator series did not reach the tolerance within the term cap."""
