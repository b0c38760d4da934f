"""Instance files: a JSON schema for g-frame problems.

An instance document carries one g-frame plus optional payloads the
operations need: a weight sequence, a control matrix, a companion
frame, an explicit dual, a bijection operator, a coisometry. Complex
numbers are [re, im] pairs and matrices are row-major lists of rows, so
documents round-trip bit-exactly through parse/serialize. The CLI's
--out documents are built here too (`result_document`), and every
pretty JSON text is laid out by `json_text`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import GFrame, frame_bounds, is_g_onb, is_g_riesz, is_parseval
from .errors import InfeasibleKind, SchemaError

if TYPE_CHECKING:  # loaded where weights are parsed or generated
    from .multipliers import WeightSequence

SCHEMA_VERSION = 1

# kind -> (`sampling` function, the predicate that certifies its sample, the
# name certified); `sampling` is loaded only by `generate`, so it is named here
_G_FRAME = ("random_gframe", lambda frame: frame_bounds(frame).is_frame, "g-frame")
_GENERATORS = {
    "random_gframe": _G_FRAME,
    "g_riesz": ("random_g_riesz", is_g_riesz, "g-Riesz"),
    "g_onb": ("random_g_onb", is_g_onb, "g-ONB"),
    "parseval": ("random_parseval", is_parseval, "Parseval"),
    "controlled_commuting": _G_FRAME,
    "weighted": _G_FRAME,
}
GENERATE_KINDS = tuple(_GENERATORS)

@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance document."""

    gframe: GFrame
    weights: WeightSequence | None = None
    weights_alt: WeightSequence | None = None
    control: np.ndarray | None = None
    companion: GFrame | None = None
    dual: GFrame | None = None
    bijection: np.ndarray | None = None
    coisometry: np.ndarray | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def label(self) -> str | None:
        return self.gframe.label


# -- parsing -------------------------------------------------------------------


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _parse_number(node, path) -> float:
    _expect(isinstance(node, (int, float)) and not isinstance(node, bool),
            path, f"expected a number, got {type(node).__name__}")
    value = float(node)
    _expect(np.isfinite(value), path, "number must be finite")
    return value


def _parse_complex(node, path) -> complex:
    _expect(isinstance(node, list) and len(node) == 2,
            path, "complex numbers are [re, im] pairs")
    return complex(_parse_number(node[0], f"{path}[0]"),
                   _parse_number(node[1], f"{path}[1]"))


def _parse_matrix(node, path, rows: int | None = None,
                  cols: int | None = None) -> np.ndarray:
    _expect(isinstance(node, list) and len(node) >= 1, path, "expected a list of rows")
    if rows is not None:
        _expect(len(node) == rows, path, f"expected {rows} rows, got {len(node)}")
    parsed_rows = []
    width = None
    for r, row in enumerate(node):
        row_path = f"{path}[{r}]"
        _expect(isinstance(row, list) and len(row) >= 1, row_path,
                "expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
            if cols is not None:
                _expect(width == cols, row_path,
                        f"expected {cols} columns, got {width}")
        else:
            _expect(len(row) == width, row_path,
                    f"ragged matrix: row has {len(row)} entries, expected {width}")
        parsed_rows.append(
            [_parse_complex(z, f"{row_path}[{c}]") for c, z in enumerate(row)]
        )
    return np.array(parsed_rows, dtype=np.complex128)


def _parse_blocks(node, path, h_dim: int) -> list[np.ndarray]:
    _expect(isinstance(node, list) and len(node) >= 1, path,
            "expected a non-empty list of blocks")
    blocks = []
    for i, blk in enumerate(node):
        blk_path = f"{path}[{i}]"
        _expect(isinstance(blk, dict), blk_path, "each block is an object")
        extra = set(blk) - {"dim", "matrix"}
        _expect(not extra, blk_path, f"unknown keys {sorted(extra)}")
        _expect("dim" in blk, f"{blk_path}.dim", "missing")
        _expect("matrix" in blk, f"{blk_path}.matrix", "missing")
        dim = blk["dim"]
        _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
                f"{blk_path}.dim", f"expected a positive integer, got {dim!r}")
        blocks.append(_parse_matrix(blk["matrix"], f"{blk_path}.matrix",
                                    rows=dim, cols=h_dim))
    return blocks


def _parse_weights(node, path, count: int) -> WeightSequence:
    from .multipliers import WeightSequence

    _expect(isinstance(node, list), path, "expected a list of [re, im] pairs")
    _expect(len(node) == count, path,
            f"expected one weight per block ({count}), got {len(node)}")
    values = [_parse_complex(z, f"{path}[{i}]") for i, z in enumerate(node)]
    return WeightSequence(np.array(values, dtype=np.complex128))


def _parse_subframe(node, path, h_dim: int) -> GFrame:
    _expect(isinstance(node, dict), path, "expected an object with a 'blocks' key")
    extra = set(node) - {"blocks"}
    _expect(not extra, path, f"unknown keys {sorted(extra)}")
    _expect("blocks" in node, f"{path}.blocks", "missing")
    blocks = _parse_blocks(node["blocks"], f"{path}.blocks", h_dim)
    return GFrame(h_dim, tuple(blocks))


# -- serialization -------------------------------------------------------------


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_document(matrix) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(matrix)]


def frame_document(frame: GFrame) -> list:
    """The `blocks` list of an instance document: one {dim, matrix} per block."""
    return [
        {"dim": int(b.shape[0]), "matrix": matrix_document(b)}
        for b in frame.blocks
    ]


def _weights_document(weights: WeightSequence) -> list:
    return [complex_pair(z) for z in weights.values]


def _subframe_document(frame: GFrame) -> dict:
    return {"blocks": frame_document(frame)}


# The optional payloads in parse order, which decides the error reported for
# a document with several malformed ones:
# key -> (parse(node, path, h_dim, n_blocks), dump(value))
_PAYLOADS = {
    "weights": (lambda node, path, h, n: _parse_weights(node, path, n), _weights_document),
    "weights_alt": (lambda node, path, h, n: _parse_weights(node, path, n), _weights_document),
    "control": (lambda node, path, h, n: _parse_matrix(node, path, rows=h, cols=h),
                matrix_document),
    "bijection": (lambda node, path, h, n: _parse_matrix(node, path, rows=h, cols=h),
                  matrix_document),
    "coisometry": (lambda node, path, h, n: _parse_matrix(node, path, cols=h), matrix_document),
    "companion": (lambda node, path, h, n: _parse_subframe(node, path, h), _subframe_document),
    "dual": (lambda node, path, h, n: _parse_subframe(node, path, h), _subframe_document),
}
_TOP_LEVEL_KEYS = {"schema_version", "h_dim", "label", "blocks", *_PAYLOADS}


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate an instance document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    extra = set(doc) - _TOP_LEVEL_KEYS
    _expect(not extra, "$", f"unknown keys {sorted(extra)}")
    _expect("schema_version" in doc, "$.schema_version", "missing")
    _expect(doc["schema_version"] == SCHEMA_VERSION, "$.schema_version",
            f"unsupported version {doc['schema_version']!r}")
    _expect("h_dim" in doc, "$.h_dim", "missing")
    h_dim = doc["h_dim"]
    _expect(isinstance(h_dim, int) and not isinstance(h_dim, bool) and h_dim >= 1,
            "$.h_dim", f"expected a positive integer, got {h_dim!r}")
    label = doc.get("label")
    if label is not None:
        _expect(isinstance(label, str), "$.label", "expected a string")
    _expect("blocks" in doc, "$.blocks", "missing")
    blocks = _parse_blocks(doc["blocks"], "$.blocks", h_dim)
    gframe = GFrame(h_dim, tuple(blocks), label=label)

    payloads = {key: parse(doc[key], f"$.{key}", h_dim, len(blocks))
                for key, (parse, _) in _PAYLOADS.items() if key in doc}
    return InstanceFile(gframe=gframe, **payloads)


def load_instance(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def instance_document(inst: InstanceFile) -> dict:
    doc: dict = {
        "schema_version": inst.schema_version,
        "h_dim": inst.gframe.h_dim,
        "blocks": frame_document(inst.gframe),
    }
    if inst.gframe.label is not None:
        doc["label"] = inst.gframe.label
    for key, (_, dump) in _PAYLOADS.items():
        value = getattr(inst, key)
        if value is not None:
            doc[key] = dump(value)
    return doc


def json_text(doc) -> str:
    """The one pretty JSON layout: of every --json report, every --out file
    and the pretty form of an instance document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def serialize_instance(inst: InstanceFile, compact: bool = False) -> str:
    doc = instance_document(inst)
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json_text(doc)


def instance_digest(inst: InstanceFile) -> str:
    """sha256 of the canonical compact serialization."""
    return hashlib.sha256(serialize_instance(inst, compact=True).encode()).hexdigest()


def result_document(result) -> dict:
    """The --out document of a command's result: an instance document for a
    GFrame, {schema_version, matrix} for an array, and for a decomposition
    {schema_version, scalars, kinds, components}, read by attribute so that
    `decompositions` is loaded only by the commands that run it."""
    if isinstance(result, GFrame):
        return instance_document(InstanceFile(gframe=result))
    if isinstance(result, np.ndarray):
        return {"schema_version": SCHEMA_VERSION, "matrix": matrix_document(result)}
    return {
        "schema_version": SCHEMA_VERSION,
        "scalars": [complex_pair(a) for a in result.scalars],
        "kinds": [k.value for k in result.component_kinds],
        "components": [_subframe_document(c) for c in result.components],
    }


# -- generation ----------------------------------------------------------------


def generate(kind: str, dim: int, partition, seed: int) -> InstanceFile:
    """Build a certified instance of the requested kind, deterministically.

    The same (kind, dim, partition, seed) always produces the same
    document. Kinds whose dimension constraints cannot be met raise
    InfeasibleKind.
    """
    if kind not in GENERATE_KINDS:
        raise InfeasibleKind(
            f"unknown kind {kind!r}; expected one of {', '.join(GENERATE_KINDS)}"
        )
    sizes = tuple(int(p) for p in partition)
    if not sizes or any(p < 1 for p in sizes):
        raise InfeasibleKind(f"invalid partition {list(partition)!r}")
    if not isinstance(dim, int) or dim < 1:
        raise InfeasibleKind(f"dimension must be a positive integer, got {dim!r}")
    from . import sampling
    from .multipliers import WeightSequence

    rng = np.random.default_rng(seed)
    label = f"{kind} d={dim} partition={list(sizes)} seed={seed}"

    sampler, certifies, name = _GENERATORS[kind]
    frame = getattr(sampling, sampler)(rng, dim, sizes, label=label)
    if not certifies(frame):
        raise InfeasibleKind(f"generated family failed {name} certification")
    weights = control = None
    if kind == "controlled_commuting":
        control = sampling.random_control_commuting(rng, frame).matrix
    elif kind == "weighted":
        weights = WeightSequence(sampling.random_positive_weights(rng, len(sizes)))
    return InstanceFile(gframe=frame, weights=weights, control=control)
