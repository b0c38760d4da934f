"""Instance documents: parsing, validation paths, serialization, generation."""

import json

import numpy as np
import pytest

from gframes import (
    ControlOperator,
    FrameClass,
    GFrame,
    InstanceFile,
    WeightSequence,
    classify,
    frame_bounds,
    generate,
    verify_commutation,
)
from gframes.errors import InfeasibleKind, SchemaError
from gframes.io import (
    instance_digest,
    load_instance,
    matrix_document,
    parse_instance,
    serialize_instance,
)

IDENTITY_DOC = {
    "schema_version": 1,
    "h_dim": 2,
    "blocks": [
        {"dim": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]},
        {"dim": 1, "matrix": [[[0.0, 0.0], [1.0, 0.0]]]},
    ],
}


def identity_text(**overrides):
    doc = {**IDENTITY_DOC, **overrides}
    return json.dumps(doc)


def expect_schema_error(text, path_prefix):
    with pytest.raises(SchemaError) as exc:
        parse_instance(text)
    assert exc.value.path.startswith(path_prefix), exc.value.path


# -- parsing -------------------------------------------------------------------


def test_minimal_identity_document():
    inst = parse_instance(identity_text())
    assert inst.gframe.h_dim == 2
    assert inst.gframe.n_blocks == 2
    assert classify(inst.gframe).is_g_onb
    assert inst.weights is None and inst.control is None


def test_optional_sections_parse():
    doc = dict(
        IDENTITY_DOC,
        label="everything",
        weights=[[2.0, 0.0], [0.0, 3.0]],
        weights_alt=[[1.0, 0.0], [1.0, 0.0]],
        control=matrix_document(np.diag([2.0, 3.0])),
        bijection=matrix_document(np.eye(2)),
        coisometry=matrix_document(np.array([[1.0, 0.0]])),
        companion={"blocks": IDENTITY_DOC["blocks"]},
        dual={"blocks": IDENTITY_DOC["blocks"]},
    )
    inst = parse_instance(json.dumps(doc))
    assert inst.label == "everything"
    assert np.allclose(inst.weights.values, [2.0, 3.0j])
    assert np.allclose(inst.weights_alt.values, [1.0, 1.0])
    assert np.allclose(inst.control, np.diag([2.0, 3.0]))
    assert np.allclose(inst.bijection, np.eye(2))
    assert inst.coisometry.shape == (1, 2)
    assert inst.companion.n_blocks == 2
    assert inst.dual.n_blocks == 2


def test_parse_rejects_invalid_json_and_top_level_shape():
    expect_schema_error("not json", "$")
    expect_schema_error(json.dumps([1, 2]), "$")
    expect_schema_error(identity_text(extra_key=1), "$")


def test_parse_rejects_version_and_h_dim_problems():
    expect_schema_error(identity_text(schema_version=2), "$.schema_version")
    doc = {k: v for k, v in IDENTITY_DOC.items() if k != "schema_version"}
    expect_schema_error(json.dumps(doc), "$.schema_version")
    expect_schema_error(identity_text(h_dim=0), "$.h_dim")
    expect_schema_error(identity_text(h_dim=True), "$.h_dim")
    doc = {k: v for k, v in IDENTITY_DOC.items() if k != "h_dim"}
    expect_schema_error(json.dumps(doc), "$.h_dim")


def test_parse_rejects_block_shape_problems():
    doc = dict(IDENTITY_DOC, blocks=[])
    expect_schema_error(json.dumps(doc), "$.blocks")
    # block 0 claims dim 2 but carries one row
    doc = dict(
        IDENTITY_DOC,
        blocks=[{"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}],
    )
    expect_schema_error(json.dumps(doc), "$.blocks[0].matrix")
    # wrong column count against h_dim
    doc = dict(IDENTITY_DOC, blocks=[{"dim": 1, "matrix": [[[1.0, 0.0]]]}])
    expect_schema_error(json.dumps(doc), "$.blocks[0].matrix[0]")
    # ragged rows
    doc = dict(
        IDENTITY_DOC,
        blocks=[{
            "dim": 2,
            "matrix": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0]],
            ],
        }],
    )
    expect_schema_error(json.dumps(doc), "$.blocks[0].matrix[1]")
    doc = dict(IDENTITY_DOC, blocks=[{"dim": 1, "matrix": [[[1, 0], [0, 0]]],
                                      "note": "x"}])
    expect_schema_error(json.dumps(doc), "$.blocks[0]")


def test_parse_rejects_bad_numbers():
    text = identity_text().replace("1.0", "NaN", 1)
    expect_schema_error(text, "$.blocks[0].matrix[0][0][0]")
    doc = dict(IDENTITY_DOC, weights=[[1.0, 0.0], ["two", 0.0]])
    expect_schema_error(json.dumps(doc), "$.weights[1][0]")


def test_parse_rejects_bad_complex_pairs_and_weight_counts():
    doc = dict(IDENTITY_DOC, weights=[[1.0, 0.0]])
    expect_schema_error(json.dumps(doc), "$.weights")
    doc = dict(IDENTITY_DOC, weights=[[1.0, 0.0], [1.0]])
    expect_schema_error(json.dumps(doc), "$.weights[1]")
    doc = dict(IDENTITY_DOC, weights=[[1.0, 0.0], 1.0])
    expect_schema_error(json.dumps(doc), "$.weights[1]")


def test_parse_rejects_misshaped_control_and_subframes():
    doc = dict(IDENTITY_DOC, control=matrix_document(np.eye(3)))
    expect_schema_error(json.dumps(doc), "$.control")
    doc = dict(IDENTITY_DOC, companion=[1, 2])
    expect_schema_error(json.dumps(doc), "$.companion")
    doc = dict(IDENTITY_DOC, dual={"blocks": IDENTITY_DOC["blocks"], "x": 1})
    expect_schema_error(json.dumps(doc), "$.dual")


def test_earliest_malformed_payload_in_parse_order_is_reported():
    order = ("weights", "weights_alt", "control", "bijection", "coisometry", "companion", "dual")
    for i, early in enumerate(order):
        for late in order[i + 1:]:
            # the later payload comes first in the document: parse order decides
            with pytest.raises(SchemaError) as exc:
                parse_instance(identity_text(**{late: "x", early: "x"}))
            assert exc.value.path == f"$.{early}", (early, late)


# -- serialization --------------------------------------------------------------


def test_round_trip_preserves_everything():
    inst = generate("weighted", 3, [2, 2], seed=5)
    again = parse_instance(serialize_instance(inst))
    assert again.gframe.h_dim == inst.gframe.h_dim
    for a, b in zip(again.gframe.blocks, inst.gframe.blocks):
        assert np.array_equal(a, b)
    assert np.array_equal(again.weights.values, inst.weights.values)
    assert again.label == inst.label
    assert instance_digest(again) == instance_digest(inst)


def test_compact_and_pretty_forms_agree():
    inst = generate("random_gframe", 2, [1, 2], seed=9)
    pretty = json.loads(serialize_instance(inst))
    compact = json.loads(serialize_instance(inst, compact=True))
    assert pretty == compact


def test_dump_and_load(tmp_path):
    inst = generate("parseval", 2, [1, 1, 1], seed=3)
    target = tmp_path / "instance.json"
    target.write_text(serialize_instance(inst))
    loaded = load_instance(target)
    assert instance_digest(loaded) == instance_digest(inst)


def test_load_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "absent.json")


def test_digest_is_sensitive_to_content():
    base = generate("random_gframe", 2, [1, 1], seed=1)
    changed = InstanceFile(
        gframe=base.gframe, weights=WeightSequence(np.array([1.0, 2.0]))
    )
    assert instance_digest(base) != instance_digest(changed)


# -- generation ------------------------------------------------------------------


def test_generate_is_deterministic():
    first = serialize_instance(generate("g_riesz", 3, [1, 2], seed=42))
    second = serialize_instance(generate("g_riesz", 3, [1, 2], seed=42))
    assert first == second
    other = serialize_instance(generate("g_riesz", 3, [1, 2], seed=43))
    assert first != other


def test_generate_certifies_each_kind():
    onb = generate("g_onb", 3, [1, 2], seed=7)
    assert classify(onb.gframe).is_g_onb

    riesz = generate("g_riesz", 3, [1, 2], seed=7)
    assert classify(riesz.gframe).is_g_riesz

    parseval = generate("parseval", 2, [2, 1], seed=7)
    bounds = frame_bounds(parseval.gframe)
    assert bounds.classification is FrameClass.PARSEVAL
    assert abs(bounds.lower - 1.0) <= 1e-10
    assert abs(bounds.upper - 1.0) <= 1e-10

    plain = generate("random_gframe", 3, [2, 2], seed=7)
    assert classify(plain.gframe).is_g_frame


def test_generate_controlled_instance_commutes():
    inst = generate("controlled_commuting", 3, [2, 2], seed=11)
    control = ControlOperator(inst.control)
    assert control.is_self_adjoint and control.is_positive
    assert verify_commutation(inst.gframe, control).holds


def test_generate_weighted_instance_has_positive_weights():
    inst = generate("weighted", 3, [1, 1, 2], seed=13)
    assert inst.weights is not None
    assert len(inst.weights) == 3
    assert inst.weights.is_positive


def test_generate_rejects_infeasible_requests():
    with pytest.raises(InfeasibleKind):
        generate("g_onb", 3, [1, 1], seed=0)  # blocks sum to 2, not 3
    with pytest.raises(InfeasibleKind):
        generate("parseval", 3, [1, 1], seed=0)  # cannot span dimension 3
    with pytest.raises(InfeasibleKind):
        generate("mystery", 2, [1, 1], seed=0)
    with pytest.raises(InfeasibleKind):
        generate("random_gframe", 0, [1], seed=0)
    with pytest.raises(InfeasibleKind):
        generate("random_gframe", 2, [], seed=0)
    with pytest.raises(InfeasibleKind):
        generate("random_gframe", 2, [0, 1], seed=0)


def test_generated_labels_record_the_request():
    inst = generate("parseval", 2, [1, 1], seed=21)
    assert "parseval" in inst.label
    assert "seed=21" in inst.label
