"""The one reader of single-object JSON files (models, camera intrinsics,
motion scripts, configs) and the one reader and writer of JSONL streams (one
JSON object per line). A malformed file raises ValueError naming it, and the
line for a stream; an EgoPoseError raised while converting a record passes
through unchanged.
"""

import json
from contextlib import contextmanager

import numpy as np


def _describe(e: Exception) -> str:
    """The message of a field error; a KeyError's alone is just the key."""
    return f"missing field {e.args[0]!r}" if isinstance(e, KeyError) else str(e)


def load_json_object(path) -> dict:
    """The JSON object a file holds; ValueError naming the file when it is not
    JSON or holds anything else."""
    with open(path) as f, model_fields(path):
        rec = json.load(f)
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(rec).__name__}")
    return rec


@contextmanager
def model_fields(path):
    """Scope in which an object is built from the record read from path: a
    missing field, or one of the wrong JSON type or value, raises ValueError
    naming the file."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as e:
        raise ValueError(f"{path}: {_describe(e)}") from e


def read_records(path, convert):
    """Yield convert(rec) for each record of a JSONL file, skipping blank
    lines; a bad record raises ValueError starting with path:line:."""
    lineno = 0
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object, found {type(rec).__name__}")
                yield convert(rec)
    except (TypeError, ValueError, KeyError) as e:
        raise ValueError(f"{path}:{lineno}: {_describe(e)}") from e


def integral(rec: dict, key: str) -> int:
    """rec[key] as an int; ValueError unless it is an integral JSON number
    (so 3 and 3.0 read as 3, while 0.7, true and "1" are errors)."""
    val = rec[key]
    if type(val) is int or (type(val) is float and val.is_integer()):
        return int(val)
    raise ValueError(f"{key} must be an integer, found {json.dumps(val)}")


def number(rec: dict, key: str) -> float:
    """rec[key] as a float; ValueError unless it is a JSON number (so 1 and
    1.5 read as 1.0 and 1.5, while true and "1.5" are errors)."""
    val = rec[key]
    if type(val) in (int, float):
        return float(val)
    raise ValueError(f"{key} must be a number, found {json.dumps(val)}")


def integral_array(values, name: str) -> np.ndarray:
    """values as an int64 array; ValueError unless every entry is an
    integral number (so [0, 1.0] reads as [0, 1], while [0.5], [NaN],
    ["1"] and [0, true] are errors). NumPy casts a boolean among numbers to
    0 or 1, so a list is checked for one; an array is trusted to its dtype."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or (isinstance(values, list) and bool in set(map(type, values))):
        raise ValueError(f"{name} must be a list of numbers")
    with np.errstate(invalid="ignore"):  # NaN or inf cast to an int: unequal below
        ints = a.astype(np.int64)
    if not np.array_equal(ints, a):
        raise ValueError(f"{name} must hold integers")
    return ints


def write_json_object(path, rec, indent=None) -> None:
    """Write one JSON object; json.dumps runs the C encoder (when indent is
    None), which json.dump never uses, and writes the same bytes."""
    with open(path, "w") as f:
        f.write(json.dumps(rec, indent=indent))


def write_records(path, records) -> None:
    """Write each record as one line of JSON."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
