"""Serialization: round-trip float JSON, atomic file writes, CSV tables.

All floats are emitted with 17 significant digits so that written values
parse back to the identical double (JSON has no inf or NaN, so those are
written as null there; CSV keeps Infinity and NaN); all file writes go through a
temporary file in the destination directory followed by os.replace, so
readers never observe a partially written file.
"""

import json
import math
import os
import tempfile

import numpy as np

from . import spectra
from .sequences import PulseSequence


def format_float(x):
    """Shortest-faithful decimal for a double (17 significant digits)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps_json(obj, indent=None):
    """json.dumps with deterministic 17-digit floats and numpy support.

    Non-finite floats become null, so the output is strict JSON.
    """

    def emit(o, level):
        pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
        end = "" if indent is None else "\n" + " " * (indent * level)
        sep = "," if indent is None else ","
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (np.floating, float)):
            return format_float(float(o)) if math.isfinite(o) else "null"
        if isinstance(o, (np.integer, int)):
            return str(int(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{json.dumps(str(k))}: {emit(v, level + 1)}'
                     for k, v in o.items()]
            return "{" + pad + (sep + pad).join(items) + end + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [emit(v, level + 1) for v in o]
            return "[" + pad + (sep + pad).join(items) + end + "]"
        raise TypeError(f"not JSON-serializable: {type(o)!r}")

    return emit(obj, 0)


def atomic_write_text(path, text):
    """Write via a same-directory temp file and atomic rename."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj, indent=2):
    atomic_write_text(path, dumps_json(obj, indent=indent) + "\n")


def write_csv(path, header, rows):
    """CSV with a header line; floats get the 17-digit treatment. Rows must
    have equal lengths: the table is formatted column by column."""

    def column(values):
        if set(map(type, values)) <= {float, np.float64}:   # Python floats format faster
            floats = np.array(values, dtype=float)
            return list(map("{:.17g}".format if np.isfinite(floats).all() else format_float,
                            floats.tolist()))
        return [format_float(float(v)) if isinstance(v, (np.floating, float)) else str(v)
                for v in values]

    columns = [column(values) for values in zip(*rows, strict=True)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_spectrum(path):
    """Spectrum from a JSON config file ({"variant": ..., <fields>})."""
    return spectra.from_dict(read_json(path))


def load_sequence(path):
    """Pulse sequence from a JSON file written by PulseSequence.to_dict."""
    return PulseSequence.from_dict(read_json(path))
