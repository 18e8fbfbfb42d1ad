"""The JSONL record reader and writer every stream file goes through, and
the NPY reader and writer of the models' big arrays.

Every loader reports a malformed record as a ValueError naming path:line,
passes the package's own errors through unchanged, and skips blank lines;
every writer emits exactly json.dumps(record) + "\\n" per record.
"""

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from egopose.classify import ForestModel, KnnModel, load_static, save_static
from egopose.clustering import ExemplarBank, read_bank_fields
from egopose.errors import NormalizationFailure, SingularMatrix
from egopose.geometry import load_correspondences, load_homographies, save_correspondences, save_homographies
from egopose.pathopt import PosePath
from egopose.pipeline import load_features, save_features
from egopose.records import integral_array, load_array, load_json_object, number, read_records, save_array, write_json_object
from egopose.skeleton import Pose, PoseSequence, load_pose_sequence_with_times, save_pose_sequence
from egopose.synth import MotionScript, generate, load_labels
from test_classify import forest_record

EDGE = [-0.0, 1e-300, 0.1 + 0.2]  # a signed zero, a tiny normal, a sum that repr must round-trip
SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

# loader and one valid record (t=0) of its stream
LOADERS = {
    "poses": (load_pose_sequence_with_times, {"t": 0, "frame": "sensor", "joints": [[0.0, 0.0, 0.0]] * 25}),
    "homographies": (load_homographies, {"t": 0, "h": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]}),
    "correspondences": (load_correspondences, {"t": 0, "src": SQUARE, "dst": SQUARE}),
    "static": (load_static, {"t": 0, "h": 0.5}),
    "features": (lambda path: load_features(path, 10), {"t": 0, "v": [0.0, 1.0]}),
    "labels": (load_labels, {"t": 0, "sitting": True}),
}
BAD = {  # loader -> (missing field, null field, field of the wrong shape and its value)
    "poses": ("joints", "t", ("joints", [[0.0, 0.0, 0.0]])),
    "homographies": ("h", "h", ("h", [1.0, 0.0, 0.0])),
    "correspondences": ("dst", "src", ("src", [0.0, 0.0, 1.0, 0.0])),
    "static": ("h", "h", ("h", [0.5])),
    "features": ("v", "t", ("v", [[0.0, 1.0]])),
    "labels": ("sitting", "sitting", ("sitting", [True])),
}


def _bad_record(loader, case):
    missing, null, (field, value) = BAD[loader]
    rec = dict(LOADERS[loader][1], t=2)
    if case == "non-object":
        return [1, 2]
    if case == "missing":
        del rec[missing]
    elif case == "null":
        rec[null] = None
    else:
        rec[field] = value
    return rec


@pytest.mark.parametrize("case", ["non-object", "missing", "null", "wrong shape"])
@pytest.mark.parametrize("loader", list(LOADERS))
def test_malformed_record_names_its_file_and_line(tmp_path, loader, case):
    load, good = LOADERS[loader]
    path = tmp_path / f"{loader}.jsonl"
    # two valid records around a blank line, then the bad one at line 4
    lines = [json.dumps(good), "", json.dumps(dict(good, t=1)), json.dumps(_bad_record(loader, case))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}:4: ")
    if case == "missing":
        assert msg == f"{path}:4: missing field {BAD[loader][0]!r}"


@pytest.mark.parametrize("loader", list(LOADERS))
def test_loaders_skip_blank_lines(tmp_path, loader):
    load, good = LOADERS[loader]
    path = tmp_path / f"{loader}.jsonl"
    path.write_text("\n  \n" + json.dumps(good) + "\n\n" + json.dumps(dict(good, t=1)) + "\n \t\n")
    n_records = {"poses": lambda r: len(r[1]), "features": lambda r: len(r[0])}.get(loader, len)
    assert n_records(load(path)) == 2


@pytest.mark.parametrize("value", [0.7, True, "1", None])
@pytest.mark.parametrize("loader, field", [("poses", "t"), ("features", "t")])
def test_frame_index_and_class_must_be_integral_numbers(tmp_path, loader, field, value):
    load, good = LOADERS[loader]
    path = tmp_path / f"{loader}.jsonl"
    path.write_text("\n".join(json.dumps(dict(good, t=t)) for t in (0, 2.0)) + "\n")  # 2.0 reads as 2
    assert list(load(path)[1 if loader == "poses" else 0]) == [0, 2]
    rec = dict(good, t=3)
    rec[field] = value
    path.write_text("\n".join([json.dumps(good), json.dumps(rec)]) + "\n")
    found = re.escape(json.dumps(value))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {field} must be an integer, found {found}$"):
        load(path)


def _knn_over(path):
    """The kNN model over the feature file at path, read through a kNN file
    that names it, over a bank of 10 poses."""
    knn = path.parent / "knn.json"
    knn.write_text(json.dumps({"features": path.name, "k": 1}))
    return KnnModel.load(knn, ExemplarBank(np.zeros((10, 75)), np.zeros(10, dtype=int), [], 1))


# reader, a valid file's record (a stream's when it holds t), and the keys
# down to one of its numbers
NUMBER_READERS = {
    "homography": (load_homographies, LOADERS["homographies"][1], ("h", 4)),
    "correspondence": (load_correspondences, LOADERS["correspondences"][1], ("dst", 1, 0)),
    "pose": (load_pose_sequence_with_times, LOADERS["poses"][1], ("joints", 3, 1)),
    "feature": (LOADERS["features"][0], LOADERS["features"][1], ("v", 1)),
    "static": (load_static, LOADERS["static"][1], ("h",)),
    "bank": (read_bank_fields, {"k": 2, "poses_file": "bank_poses.npy", "cluster_of": [0, 1, 1], "sequence_breaks": []}, ("cluster_of", 1)),
    "knn": (_knn_over, LOADERS["features"][1], ("v", 1)),
    "forest": (ForestModel.load, forest_record(), ("trees", "thresh", 1)),
}


@pytest.mark.parametrize("bad", [True, "1", "0.5", [0.5]])  # the list makes a ragged one of its list
@pytest.mark.parametrize("reader", list(NUMBER_READERS))
def test_numbers_in_data_files_must_be_json_numbers(tmp_path, reader, bad):
    load, good, keys = NUMBER_READERS[reader]
    stream = "t" in good
    path = tmp_path / ("data.jsonl" if stream else "model.json")
    path.write_text(json.dumps(good) + "\n")
    load(path)
    rec = json.loads(json.dumps(good))  # a copy whose lists share nothing
    node = rec
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = bad  # NumPy would read true as 1.0 and a numeric string as its number, and name no field
    path.write_text(json.dumps(rec) + "\n")
    field = [key for key in keys if isinstance(key, str)][-1]
    where = f"{path}:1: " if stream else f"{path}: "
    with pytest.raises(ValueError, match=f"^{re.escape(where)}{field} must be a "):
        load(path)


def test_pose_times_must_increase_naming_the_line(tmp_path):
    _, good = LOADERS["poses"]
    path = tmp_path / "poses.jsonl"
    path.write_text("\n".join([json.dumps(dict(good, t=3)), "", json.dumps(dict(good, t=3))]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: frame indices must increase$"):
        load_pose_sequence_with_times(path)


@pytest.mark.parametrize(
    "h, error",
    [
        ([2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], NormalizationFailure),
        ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], SingularMatrix),
    ],
)
def test_package_errors_from_a_record_pass_through(tmp_path, h, error):
    """A package error keeps its type, and so its exit code, and names the
    file and line."""
    path = tmp_path / "h.jsonl"
    path.write_text(json.dumps({"t": 0, "h": h}) + "\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}:1: "):
        load_homographies(path)


# per-frame streams: record n must hold t = n
FRAME_STREAMS = ["homographies", "correspondences", "static", "labels"]
T_FAULTS = {  # fault -> (its records' t, or None for no t, in file order; the message at the faulty line 3)
    "missing": ([0, 1, None, 3], "missing field 't'"),
    "non-integral": ([0, 1, 2.5, 3], "t must be an integer, found 2.5"),
    "repeated": ([0, 1, 1, 2], "expected 2, found 1"),
    "skipped": ([0, 1, 3, 4], "expected 2, found 3"),
    "out of order": ([0, 1, 3, 2], "expected 2, found 3"),
}


@pytest.mark.parametrize("fault", list(T_FAULTS))
@pytest.mark.parametrize("stream", FRAME_STREAMS)
def test_frame_streams_must_count_t_from_zero(tmp_path, stream, fault):
    """Every writer of a per-frame stream writes t = 0, 1, 2, ...; a reader
    takes records in file order, so any other t is a ValueError naming the
    file and line, not a frame silently misplaced."""
    load, good = LOADERS[stream]
    path = tmp_path / f"{stream}.jsonl"
    path.write_text("".join(json.dumps(dict(good, t=t)) + "\n" for t in range(4)))
    assert len(load(path)) == 4
    times, message = T_FAULTS[fault]
    recs = [dict(good, t=t) for t in times]
    if times[2] is None:
        del recs[2]["t"]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(message)}$"):
        load(path)


def test_read_records_reads_lazily(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('\n{"a": 1}\nnot json\n')
    assert next(read_records(path, set)) == {"a"}  # the bad line 3 is never read
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        list(read_records(path, set))


def _expected(recs) -> str:
    return "".join(json.dumps(r) + "\n" for r in recs)


def _pose_joints(i):
    return [[EDGE[(i + j) % 3], EDGE[(i + j + 1) % 3], EDGE[(i + j + 2) % 3]] for j in range(25)]


def test_writers_emit_one_json_dumps_line_per_record(tmp_path):
    cases = []
    joints = [_pose_joints(i) for i in range(3)]
    save_pose_sequence(tmp_path / "p", PoseSequence([Pose(np.array(j)) for j in joints]), times=[4, 7, 9])
    cases.append(("p", [{"t": t, "frame": "sensor", "joints": j} for t, j in zip([4, 7, 9], joints)]))

    mats = [EDGE * 3, EDGE[::-1] * 3]
    save_homographies(tmp_path / "h", [np.array(m).reshape(3, 3) for m in mats])
    cases.append(("h", [{"t": i, "h": m} for i, m in enumerate(mats)]))

    pairs = [([EDGE[:2], EDGE[1:]], [EDGE[1:], EDGE[:2]])]
    save_correspondences(tmp_path / "c", [(np.array(s), np.array(d)) for s, d in pairs])
    cases.append(("c", [{"t": i, "src": s, "dst": d} for i, (s, d) in enumerate(pairs)]))

    save_static(tmp_path / "s", np.array(EDGE))
    cases.append(("s", [{"t": i, "h": v} for i, v in enumerate(EDGE)]))

    save_features(tmp_path / "f", np.array([3, 5]), np.array([EDGE, EDGE[::-1]]))
    cases.append(("f", [{"t": 3, "v": EDGE}, {"t": 5, "v": EDGE[::-1]}]))

    path = PosePath([2, 0, 1], 1.0, 0.0, 0.0, 0.0, 1.0)
    path.save(tmp_path / "path", SimpleNamespace(cluster_of=np.array([4, 5, 6])))
    steps = [(2, 6), (0, 4), (1, 5)]
    cases.append(("path", [{"t": n, "exemplar": i, "cluster": c} for n, (i, c) in enumerate(steps)]))

    for name, recs in cases:
        assert (tmp_path / name).read_text() == _expected(recs), name


def test_synth_labels_file_is_one_json_dumps_line_per_frame(tmp_path):
    result = generate(MotionScript([("stand_idle", 3), ("sit_down", 3)], seed=1))
    result.write(tmp_path)
    expected = _expected({"t": n, "sitting": bool(s)} for n, s in enumerate(result.sit_labels))
    assert (tmp_path / "labels.jsonl").read_text() == expected


@pytest.mark.parametrize("text", ["{", "[1, 2]", "5", ""])
def test_load_json_object_names_the_file(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_json_object(path)


@pytest.mark.parametrize(
    "values", [[0, 0.5], [1, float("nan")], [float("inf")], [2.0**63], [True], ["1"], [None], [0, True], [2.0, False]]
)
def test_integer_lists_are_checked_not_truncated(values):
    with pytest.raises(ValueError, match="^ids must "):
        integral_array(values, "ids")


def test_integer_lists_read_integral_floats_as_ints():
    got = integral_array([0, 2.0, -3], "ids")
    assert got.dtype == np.int64 and got.tolist() == [0, 2, -3]
    assert integral_array([], "ids").tolist() == []


def test_numbers_are_checked_not_cast():
    rec = {"a": 1, "b": 1.5, "t": True, "s": "1.5", "n": None}
    assert type(number(rec, "a")) is float and number(rec, "a") == 1.0 and number(rec, "b") == 1.5
    for key in ("t", "s", "n"):
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            number(rec, key)


class _MakesADirectory:
    """An object whose unpickling creates the directory at path."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_array_file_round_trips_bit_exact_and_never_runs_a_pickle(tmp_path):
    a = np.array([EDGE * 25, [1.0] * 75])
    path = tmp_path / "a.npy"
    save_array(path, a)
    back = load_array(path, 75)
    assert back.dtype == np.float64 and np.array_equal(back, a) and np.signbit(back[0, 0])
    save_array(tmp_path / "f.npy", np.asfortranarray(a))  # equal arrays, equal bytes
    assert (tmp_path / "f.npy").read_bytes() == path.read_bytes()
    ran = tmp_path / "ran"
    np.save(path, np.array([[_MakesADirectory(str(ran))] * 75], dtype=object))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Object arrays cannot be loaded"):
        load_array(path, 75)
    assert not ran.exists()


def test_json_object_that_cannot_be_encoded_leaves_the_file_as_it_was(tmp_path):
    """The record is encoded before the file is opened: no empty file is
    left behind, and an existing one keeps its bytes."""
    path = tmp_path / "meta.json"
    with pytest.raises(TypeError):
        write_json_object(path, {"window": np.int64(8)})
    assert not path.exists()
    path.write_text('{"window": 8}')
    with pytest.raises(TypeError):
        write_json_object(path, {"window": object()}, indent=2)
    assert path.read_text() == '{"window": 8}'
