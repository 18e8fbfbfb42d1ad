"""The one reader of single-object JSON files (models, camera intrinsics,
motion scripts, configs), the one reader and writer of JSONL streams (one
JSON object per line), and the one reader and writer of the NPY files (NumPy's
own format, NEP 1) that hold a model's big float arrays. A malformed file
raises ValueError naming it, and the line for a stream; an EgoPoseError
raised while converting a record is raised again, of its own type, with the
same location put before its message.
"""

import itertools
import json
from contextlib import contextmanager

import numpy as np

from .errors import EgoPoseError


def _describe(e: Exception) -> str:
    """The message of a field error; a KeyError's alone is just the key."""
    return f"missing field {e.args[0]!r}" if isinstance(e, KeyError) else str(e)


def _located(e: Exception, where: str) -> Exception:
    """e with where before its message: an EgoPoseError of its own type, and
    a field error as a ValueError."""
    if isinstance(e, EgoPoseError):
        return type(e)(f"{where}: {e}")
    return ValueError(f"{where}: {_describe(e)}")


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
    """Scope in which an object is built from, or a value checked against,
    what was read from path: a missing field, or one of the wrong JSON type
    or value, raises ValueError naming the file, and an EgoPoseError is
    raised again naming it."""
    try:
        yield
    except (TypeError, ValueError, KeyError, EgoPoseError) as e:
        raise _located(e, path) from e


def read_records(path, convert):
    """Yield convert(rec) for each record of a JSONL file, skipping blank
    lines; a bad record raises ValueError starting with path:line:, and an
    EgoPoseError from convert is raised again starting so."""
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
    except (TypeError, ValueError, KeyError, EgoPoseError) as e:
        raise _located(e, f"{path}:{lineno}") from e


def read_frames(path, convert):
    """read_records for a per-frame stream, whose n-th record holds t = n
    (every writer of one counts 0, 1, 2, ...): a record whose t is missing,
    not an integer, repeated, skipped or out of order raises ValueError
    naming path:line."""
    frames = itertools.count()

    def frame(rec):
        t, expected = integral(rec, "t"), next(frames)
        if t != expected:
            raise ValueError(f"t must count the frames 0, 1, 2, ...: expected {expected}, found {t}")
        return convert(rec)

    return read_records(path, frame)


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


def _numbers(values, name: str) -> np.ndarray:
    """values as an array; ValueError unless every entry is a number. NumPy
    casts a boolean among numbers to 0 or 1, so a list is checked for one
    at every depth of nesting; an array is trusted to its dtype."""
    try:
        a, entries = np.asarray(values), values
    except ValueError:  # a ragged list, which NumPy's message does not name
        raise ValueError(f"{name} must be a list of numbers, its lists all of one shape") from None
    for _ in range(a.ndim - 1):  # lazily, down to the entries
        entries = itertools.chain.from_iterable(entries)
    if a.dtype.kind not in "iuf" or (isinstance(values, list) and {bool, np.bool_} & set(map(type, entries))):
        raise ValueError(f"{name} must be a list of numbers")
    return a


def integral_array(values, name: str) -> np.ndarray:
    """values as an int64 array; ValueError unless every entry is an
    integral number (so [0, 1.0] reads as [0, 1], while [0.5], [NaN],
    ["1"] and [0, true] are errors)."""
    a = _numbers(values, name)
    with np.errstate(invalid="ignore"):  # NaN or inf cast to an int: unequal below
        ints = a.astype(np.int64)
    if not np.array_equal(ints, a):
        raise ValueError(f"{name} must hold integers")
    return ints


def number_array(values, name: str) -> np.ndarray:
    """values as a float array of any shape; ValueError unless every entry
    is a number (so [1, 1.5] reads as [1.0, 1.5]; ["1.5"] and [[true]] fail)."""
    return _numbers(values, name).astype(float, copy=False)


def write_json_object(path, rec, indent=None) -> None:
    """Write one JSON object, encoded before the file is opened (a record
    that cannot be leaves the file as it was); json.dumps runs the C encoder
    (when indent is None), which json.dump never uses, and writes the same bytes."""
    text = json.dumps(rec, indent=indent)
    with open(path, "w") as f:
        f.write(text)


def write_records(path, records) -> None:
    """Write each record as one line of JSON."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


_NPY_MAGIC = b"\x93NUMPY"


def save_array(path, a) -> None:
    """Write a as one C-order NPY file, the file load_array reads; equal
    arrays give equal bytes."""
    with open(path, "wb") as f:
        np.save(f, np.ascontiguousarray(a), allow_pickle=False)


def load_array(path, cols: int) -> np.ndarray:
    """The (n, cols) float64 array of the NPY file at path. ValueError naming
    the file unless it is there and holds exactly that, every entry finite:
    a missing, truncated or other file, an object array, another dtype or
    shape. Pickles are never loaded, so a load runs no stored code."""
    try:
        with open(path, "rb") as f:
            if f.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
                raise ValueError("not an NPY file")
            f.seek(0)
            a = np.load(f, allow_pickle=False)
    except (OSError, ValueError) as e:  # ValueError: a truncated file, or an object array, which needs a pickle
        raise ValueError(f"{path}: {getattr(e, 'strerror', None) or e}") from e
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[1] != cols:
        raise ValueError(f"{path}: expected an (n, {cols}) float64 array, found {a.dtype} {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: every entry must be finite")
    return a
