"""Finite-dimensional g-frames: bounds, duals, decompositions, multipliers.

A g-frame for C^d is a finite family of operators Lambda_i: C^d -> C^(d_i)
satisfying a two-sided norm inequality. This package computes optimal
bounds, classifies families, builds canonical duals, decomposes frames
into structured components, assembles and certifiably inverts g-Bessel
multipliers, and handles controlled and weighted variants, all with
explicit tolerances and machine-checkable certificates.

Importing the package loads none of its modules. Each exported name,
and each library module as `gframes.<module>`, resolves on first access
(PEP 562), which imports its home module then; so a CLI call compiles
only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "controlled": (
        "CommutationResult", "ControlOperator", "ControlledBounds",
        "DerivedBoundIntervals", "WeightedEquivalence", "WeightedOperatorChecks",
        "WeightedVectorFrame", "controlled_bound_arithmetic", "controlled_bounds",
        "controlled_equivalence", "controlled_frame_operator", "induced_controlled_frame",
        "induced_weighted_frame", "verify_commutation", "weight_from_control",
        "weighted_bounds", "weighted_dual", "weighted_equivalence_suite",
        "weighted_multiplier_as_frame_operator", "weighted_vector_frame_bounds",
    ),
    "core": (
        "ClassificationReport", "FrameBounds", "FrameClass", "GFrame", "VectorFrame",
        "canonical_dual", "classify", "duality_defect", "frame_bounds", "frame_operator",
        "gframe_from_vector_frame", "induced_frame", "scale_blocks",
        "vector_frame_operator", "verify_duality",
    ),
    "decompositions": (
        "ComponentKind", "GFrameDecomposition", "coisometry_image",
        "decompose_gonb_plus_griesz", "decompose_three_gonb", "decompose_two_gonb_combo",
        "decompose_two_parseval",
    ),
    "errors": (
        "GFrameError", "HypothesisError", "HypothesisFailed", "InputError",
        "MaxIterations", "SchemaError",
    ),
    "io": (
        "InstanceFile", "generate", "instance_digest", "load_instance", "parse_instance",
        "serialize_instance",
    ),
    "kernel": ("unitary_pair_from_contraction", "unitary_triple_from_small_norm"),
    "multipliers": (
        "MultiplierCertificate", "Proposition", "WeightSequence", "as_weight_sequence",
        "invert_bessel_perturb", "invert_canonical_dual", "invert_dual_mu_perturb",
        "invert_dual_neumann", "invert_mu_perturb", "invert_via_bijection",
        "lower_bound_from_invertible", "multiplier", "multiplier_norm_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the library modules, reachable as attributes like the exported names
_MODULES = (*_EXPORTS, "sampling", "tolerances")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:  # the import binds the submodule here itself
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
