"""Document parsing, canonical serialization, job validation."""
import numpy as np
import pytest

import critform as cf
from critform.cli import JobConfig, provenance_block, validate_job
from critform.errors import BadConfig, ParseError
from critform.reports import (
    canonical_json,
    csv_table,
    emit_graph_document,
    jsonable,
    parse_graph_text,
    parse_kernel_file,
)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_graph_text('{"vertices": [,]}', origin="bad.json")
    msg = str(err.value)
    assert "bad.json" in msg and "line 1" in msg and "column" in msg


def test_parse_rejects_non_object():
    with pytest.raises(ParseError):
        parse_graph_text("[1, 2, 3]")


def test_graph_document_round_trip(triangle):
    doc = emit_graph_document(triangle)
    again = emit_graph_document(parse_graph_text(doc))
    assert doc == again
    assert doc.endswith("\n")


def test_kernel_file_parsing(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(
        '{"kernel": [[1.0, 2.0], [0.5, 1.0]], "mu": [1, 1], "nu": [2, 1], "p": 3}',
        encoding="utf-8",
    )
    op = parse_kernel_file(str(path))
    assert op.p == 3.0 and op.kernel[0, 1] == 2.0

    bad = tmp_path / "bad.json"
    bad.write_text('{"kernel": [[1.0]], "mu": [1]}', encoding="utf-8")
    with pytest.raises(ParseError, match="missing"):
        parse_kernel_file(str(bad))
    extra = tmp_path / "extra.json"
    extra.write_text('{"kernel": [[1.0]], "mu": [1], "nu": [1], "spin": 2}',
                     encoding="utf-8")
    with pytest.raises(ParseError, match="unknown"):
        parse_kernel_file(str(extra))
    with pytest.raises(ParseError, match="cannot read"):
        parse_kernel_file(str(tmp_path / "absent.json"))


def test_jsonable_numpy_and_special_values():
    doc = jsonable({
        "a": np.float64(1.5),
        "b": np.int32(4),
        "c": np.array([1.0, 2.0]),
        "d": (np.bool_(True), frozenset({"y", "x"})),
        "e": float("nan"),
        "f": float("inf"),
        "g": -float("inf"),
    })
    assert doc == {
        "a": 1.5, "b": 4, "c": [1.0, 2.0], "d": [True, ["x", "y"]],
        "e": "nan", "f": "inf", "g": "-inf",
    }
    with pytest.raises(TypeError):
        jsonable(object())


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"z": 1, "a": 2})
    assert text.index('"a"') < text.index('"z"')
    assert text.endswith("\n")
    assert canonical_json({"a": 2, "z": 1}) == text


def test_csv_uses_full_precision():
    table = csv_table(["r", "v"], [(0.1, 1.0 / 3.0)])
    lines = table.strip().split("\n")
    assert lines[0] == "r,v"
    assert lines[1] == "0.1,0.3333333333333333"


def test_provenance_has_no_wall_time():
    block = provenance_block(seed=7, tolerances=cf.tolerances())
    assert block["seed"] == 7
    assert block["tool"] == "critform"
    assert "wall" not in canonical_json(block)
    assert "time" not in set(block)


def test_job_validation():
    validate_job(JobConfig(command="classify"))
    with pytest.raises(BadConfig):
        validate_job(JobConfig(command="transmogrify"))
    with pytest.raises(BadConfig):
        validate_job(JobConfig(command="classify", format="xml"))
    with pytest.raises(BadConfig):
        validate_job(JobConfig(command="classify", tolerances={"tol_nope": 1.0}))
    # randomized commands demand a seed
    with pytest.raises(BadConfig):
        validate_job(JobConfig(command="alpha-profile"))
    validate_job(JobConfig(command="alpha-profile", seed=0))
