import json
import math
import os

import numpy as np
import pytest

from ddfilter import OhmicSharpCutoff, make_canonical
from ddfilter.io import (
    atomic_write_text,
    dumps_json,
    format_float,
    load_sequence,
    load_spectrum,
    read_json,
    write_csv,
    write_json,
)


def test_format_float_round_trips():
    for x in (math.pi, 1e-300, -2.5e17, 0.1 + 0.2, 123456789.123456789):
        assert float(format_float(x)) == x
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    assert format_float(float("nan")) == "NaN"
    assert format_float(np.float64(0.25)) == "0.25"


def test_dumps_json_handles_numpy():
    doc = {
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.array([1.0, 2.0]),
        "d": [True, None, "s"],
    }
    text = dumps_json(doc)
    back = json.loads(text)
    assert back == {"a": 1.5, "b": 7, "c": [1.0, 2.0], "d": [True, None, "s"]}
    pretty = dumps_json(doc, indent=2)
    assert json.loads(pretty) == back
    assert "\n" in pretty


def test_dumps_json_preserves_17_digits():
    x = 0.1234567890123456789
    assert json.loads(dumps_json({"x": x}))["x"] == x


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"x": object()})


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_json_and_read_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"value": math.pi, "tags": ["x"]})
    text = path.read_text()
    assert text.endswith("\n")
    assert read_json(path) == {"value": math.pi, "tags": ["x"]}


def test_write_csv_full_precision(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["u", "F"], [(math.pi, 1e-17), (2.0, 0.5)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "u,F"
    u_back = float(lines[1].split(",")[0])
    assert u_back == math.pi


def _reference_csv(header, rows):
    """write_csv's text formatted cell by cell."""
    def cell(v):
        return format_float(float(v)) if isinstance(v, (np.floating, float)) else str(v)
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


@pytest.mark.parametrize("rows", [
    [(u, u ** 2, "ideal", 3) for u in np.geomspace(1e-3, 1e3, 50)],
    [(1, 2.5, True, None, np.float32(0.1), np.int64(7), "s", 10 ** 17, -0.0)] * 3,
    [(math.nan, math.inf, 1.5), (-math.inf, np.float64(np.nan), 2), (np.float64(np.inf), 1e-300, np.float32(4.5))],
    [tuple(np.random.default_rng(1).standard_normal(4) * 1e150)],
    [],
], ids=["filter", "mixed-types", "non-finite", "extreme", "empty"])
def test_write_csv_matches_cell_by_cell_formatting(tmp_path, rows):
    """Column-wise formatting writes the bytes of per-cell format_float / str."""
    path = tmp_path / "t.csv"
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    write_csv(path, header, rows)
    assert path.read_text() == _reference_csv(header, rows)


def test_load_spectrum(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, {"variant": "ohmic", "amplitude": 0.5, "omega_d": 3.0})
    spec = load_spectrum(path)
    assert isinstance(spec, OhmicSharpCutoff)
    assert spec.amplitude == 0.5
    assert spec.omega_d == 3.0


def test_load_sequence(tmp_path):
    path = tmp_path / "seq.json"
    write_json(path, make_canonical("udd", 5).to_dict())
    seq = load_sequence(path)
    assert seq.n == 5
    assert np.allclose(seq.deltas, make_canonical("udd", 5).deltas)
