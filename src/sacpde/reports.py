"""Deterministic report serialization (JSON and CSV).

Floats are rendered with 17 significant digits (%.17g), keys are sorted, and
no timestamps enter any artifact, so a rerun of the same configuration
produces byte-identical files — the reproducibility contract compares these
bytes directly.
"""

import hashlib
import json

import numpy as np

VERSION = "0.1.0"


def _fmt_float(x):
    if not np.isfinite(x):
        raise ValueError(f"non-finite float {x!r} in report payload")
    return "%.17g" % x


def _render(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings (got {key!r})")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def json17(obj):
    out = []
    _render(obj, out)
    return "".join(out)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json17(obj))
        fh.write("\n")


def csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(v) for v in row) + "\n")


def config_hash(config):
    """Timestamp-free fingerprint of the semantic configuration."""
    return hashlib.sha256(json17(config).encode()).hexdigest()

