"""The JSON summary that tools/compare_outputs.py prints under a sha256
difference."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_float_bits_only_keep_the_structure_identical(tmp_path):
    a = write(tmp_path / "a.json", {"w": [1.0, 0.5, 3], "name": "x", "flag": True})
    b = write(tmp_path / "b.json", {"w": [1.0 + 2e-16, 0.25, 3], "name": "x", "flag": True})
    assert compare_outputs.json_difference(a, b) == (
        "json: 3 numbers, largest difference 0.25 absolute, 0.5 relative; "
        "non-numeric structure and order identical"
    )


def test_key_order_strings_and_lengths_are_structure(tmp_path):
    base = write(tmp_path / "a.json", {"a": 1, "b": [2, "s"]})
    for other in ({"b": [2, "s"], "a": 1}, {"a": 1, "b": [2, "t"]}, {"a": 1, "b": [2, "s", 3]}):
        changed = write(tmp_path / "b.json", other)
        assert compare_outputs.json_difference(base, changed) == (
            "json: non-numeric structure and order different"
        )


def test_a_bool_is_not_a_number(tmp_path):
    a = write(tmp_path / "a.json", [True, 1])
    b = write(tmp_path / "b.json", [1, 1])
    assert compare_outputs.json_difference(a, b).endswith("order different")


def test_non_json_output_gets_no_summary(tmp_path):
    a = write(tmp_path / "a.json", [1])
    text = tmp_path / "b.csv"
    text.write_text("name,ap\nvan,0.5\n", encoding="utf-8")
    assert compare_outputs.json_difference(a, text) is None
