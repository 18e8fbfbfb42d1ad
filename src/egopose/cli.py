"""Command line front end: synth, cluster, train, infer, eval.

One JSON config carries every tunable (the path energy's PathParams, cluster
count, feature window); explicit flags override config values. infer reads
the feature settings and the kNN vote size from the model files that
cluster and train record them in. Errors print a machine-readable JSON
object on stderr. Exit codes: 0 success, 2 usage error, 3 data or config
error, 4 infeasible or degenerate input (an errors.Degenerate), 141 (128 +
SIGPIPE) when the reader of stdout closed it; output files are written
before anything is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
from dataclasses import fields

import numpy as np

# kmeans, save_features and train_forest go unused here; perfbench/layers.py wraps them at these bindings
from .classify import load_features, load_static, save_features, train_forest  # noqa: F401
from .clustering import kmeans, read_bank_fields  # noqa: F401
from .errors import Degenerate, EgoPoseError, LengthMismatch, OutOfRange
from .evaluation import joint_errors
from .geometry import CameraIntrinsics, estimate_homography, load_correspondences, load_homographies
from .pathopt import PathParams
from .pipeline import (
    SOLVERS,
    FeatureSettings,
    TrainedModels,
    _check_lengths,
    build_bank,
    build_features,
    fit_classifier,
    infer,
    load_models,
    normalized_matrix,
    train_models,
    valid_feature_centers,
    write_models,
)
from .records import integral, load_json_object, model_fields, read_records
from .skeleton import Frame, PoseSequence, load_pose_sequence_with_times, save_pose_sequence
from .synth import MotionScript, generate

# config key of each PathParams field: its own name, but "prune" for prune_threshold
_PARAM_FIELDS = {("prune" if f.name == "prune_threshold" else f.name): f.name for f in fields(PathParams)}
# the other defaults, each read from its one owner: FeatureSettings and train_models' signature
_TRAIN = inspect.signature(train_models).parameters
DEFAULT_CONFIG = {
    **{key: getattr(PathParams(), name) for key, name in _PARAM_FIELDS.items()},
    "k": _TRAIN["k"].default,
    "window": FeatureSettings.window,
    "feature_mode": FeatureSettings.mode,
    "trees": _TRAIN["n_trees"].default,
    "knn_k": _TRAIN["knn_k"].default,
    "seed": _TRAIN["seed"].default,
}
# config keys read as integral numbers: those whose default is an int; the other numbers may be fractional
_INTEGRAL_KEYS = {key for key, val in DEFAULT_CONFIG.items() if type(val) is int}


def _fail(err, code):
    msg = {"error": type(err).__name__, "message": str(err)}
    print(json.dumps(msg), file=sys.stderr)
    return code


def _json_type(val) -> str:
    """A config value's JSON type: "number" for an int or float, not a bool."""
    return "number" if type(val) in (int, float) else type(val).__name__


def _load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    path = getattr(args, "config", None)
    if path:
        loaded = load_json_object(path)
        with model_fields(path):
            unknown = set(loaded) - set(cfg)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            for key, val in loaded.items():
                if key in _INTEGRAL_KEYS:
                    loaded[key] = integral(loaded, key)
                elif _json_type(val) != _json_type(cfg[key]):
                    raise TypeError(f"config {key} must be a {_json_type(cfg[key])}, found {val!r}")
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _path_params(cfg) -> PathParams:
    return PathParams(**{name: cfg[key] for key, name in _PARAM_FIELDS.items()})


def _load_camera(path) -> CameraIntrinsics:
    """Intrinsics from a camera file or a synth manifest's "intrinsics"."""
    rec = load_json_object(path)
    with model_fields(path):
        return CameraIntrinsics.from_record(rec["intrinsics"] if "intrinsics" in rec else rec)


def _ensure_parent(path) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def _load_stream(path):
    """Homography list from either a homography or a correspondence file."""
    keys = next(read_records(path, set), None)  # the first record's keys
    if keys is None:
        raise ValueError(f"{path}: empty input stream")
    if "h" in keys:
        return load_homographies(path)
    if {"src", "dst"} <= keys:
        pairs = load_correspondences(path)
        return [estimate_homography(src, dst) for src, dst in pairs]
    raise ValueError(f"{path}: expected homography or correspondence records")


def cmd_synth(args):
    script = MotionScript.from_json(args.script)
    if args.seed is not None:
        script.seed = int(args.seed)
    result = generate(script)
    result.write(args.out_dir)
    print(f"wrote {len(result.poses)} frames to {args.out_dir}")
    return 0


def cmd_cluster(args):
    cfg = _load_config(args)
    camera = _load_camera(args.camera) if args.camera else None
    settings = FeatureSettings(cfg["window"], cfg["feature_mode"], camera)  # before any pose is read
    sequences = [load_pose_sequence_with_times(path)[0] for path in args.poses]
    paths = args.homographies or []
    if paths and len(paths) != len(sequences):  # before the DLT of any stream
        raise LengthMismatch(f"{len(paths)} homography streams for {len(sequences)} pose files")
    streams = [_load_stream(path) for path in paths]
    if streams:  # before the k-means
        _check_lengths(sequences, streams)
    model, bank = build_bank(sequences, cfg["k"], cfg["seed"])
    feats = frames = None
    if streams:  # built before anything is written
        feats, frames = build_features(sequences, streams, settings)
    write_models(TrainedModels(model, bank, settings, train_features=feats, train_feature_frames=frames), args.out)
    print(f"k-means objective: {model.objective:.6f} after {model.n_iter} iterations")
    if streams:
        feat_out = os.path.join(os.path.dirname(os.path.abspath(args.out)), "features.jsonl")
        print(f"wrote {len(frames)} feature rows to {feat_out}")
    return 0


def cmd_train(args):
    if args.loo and args.classifier != "knn":
        raise ValueError("--loo scores a kNN model: it needs --classifier knn")
    cfg = _load_config(args)
    _, cluster_of, _, n_classes = read_bank_fields(args.bank)  # the poses are not needed
    frames, x = load_features(args.features, len(cluster_of))
    if len(x) == 0:
        raise ValueError(f"{args.features}: no feature rows")
    classes = cluster_of[frames]
    model = fit_classifier(args.classifier, x, classes, n_classes, cfg["trees"], cfg["seed"], cfg["knn_k"])
    if args.classifier == "forest":
        model.save(_ensure_parent(args.out), cluster_of)
        oob = model.oob_accuracy  # None when no row was out of bag in any tree
        print("oob accuracy: no row was out of bag" if oob is None else f"oob accuracy: {oob:.4f}")
        return 0
    model.save(_ensure_parent(args.out), args.features)
    if args.loo:
        # each row votes with its k nearest other rows, min(k, n - 1) of them
        nn = model.index().query_batch(x, min(model.k + 1, len(x)))
        others = nn != np.arange(len(x))[:, None]
        keep = others & (others.cumsum(axis=1) <= model.k)
        votes = model.votes(nn[keep].reshape(len(x), -1))
        hits = int((votes.argmax(axis=1) == classes).sum())
        print(f"leave-one-out accuracy: {hits / len(x):.4f}")
    return 0


def cmd_infer(args):
    cfg = _load_config(args)
    hs = _load_stream(args.input)
    path_solver = args.solver in ("paper", "exact", "path-cluster")
    if path_solver and not args.classifier_model:
        raise ValueError(f"solver {args.solver} needs --classifier-model")
    if args.solver == "kdtree" and not args.features:
        raise ValueError("solver kdtree needs --features")
    classifier = args.classifier_model if path_solver else None
    models = load_models(args.cluster_model, args.bank, classifier, args.features if args.solver == "kdtree" else None)
    window = models.settings.window
    if not len(valid_feature_centers(len(hs) + 1, window)):  # infer's check, naming the file
        raise OutOfRange(f"{args.input}: {len(hs) + 1} frames are too short for one {window}-frame feature window")
    static_h = load_static(args.static_h, expected_frames=len(hs) + 1) if args.static_h else None
    result = infer(
        hs,
        models,
        static_h=static_h,
        params=_path_params(cfg),
        solver=args.solver,
    )

    poses_out = os.path.splitext(args.out)[0] + "_poses.jsonl"
    save_pose_sequence(_ensure_parent(poses_out), result.poses, times=result.centers)
    if result.path is not None:
        result.path.save(_ensure_parent(args.out), models.bank)
        e = result.path.energy_dict()
        print(
            "energy: U={U:.6f} T={T:.6f} V={V:.6f} S={S:.6f} total={total:.6f}".format(**e)
        )
    t = result.timings
    print(
        f"timing: {t['total_per_frame_s'] * 1e3:.2f} ms/frame total, "
        f"{t['solve_per_frame_s'] * 1e3:.2f} ms/frame solver, {len(result.centers)} frames"
    )
    if t["total_per_frame_s"] > 0.5:
        print(f"warning: {t['total_per_frame_s']:.3f} s/frame exceeds the 0.5 s/frame budget")
    print(f"wrote poses to {poses_out}" + ("" if result.path is None else f", path to {args.out}"))
    return 0


def cmd_eval(args):
    pred, pred_t = load_pose_sequence_with_times(args.pred)
    gt, gt_t = load_pose_sequence_with_times(args.gt)
    common, pi, gi = np.intersect1d(pred_t, gt_t, return_indices=True)
    if len(common) == 0:
        raise ValueError("prediction and ground truth share no frame indices")

    def wearer_local(seq, idx):
        """The poses at idx, normalized when they are sensor-frame ones."""
        return PoseSequence.of(normalized_matrix(PoseSequence.of(seq.joints[idx], seq.frame)), Frame.WEARER_LOCAL)

    report = joint_errors(wearer_local(pred, pi), wearer_local(gt, gi))
    report.save(_ensure_parent(args.out))
    print(report.format_table())
    return 0


def _add_config_flags(p):
    p.add_argument("--config", help="JSON config; flags override its values")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egopose", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate scripted synthetic data")
    p.add_argument("--script", required=True, help="motion script JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the script seed")

    p = sub.add_parser("cluster", help="cluster poses, build the exemplar bank")
    p.add_argument("--poses", nargs="+", required=True, help="pose JSONL files, one per recording")
    p.add_argument("--out", required=True, help="cluster model output; the other model files go beside it")
    p.add_argument("--homographies", nargs="*", default=None, help="emit features for these streams")
    p.add_argument("--camera", help="intrinsics JSON, needed for rotation features; recorded in meta.json")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--feature-mode", dest="feature_mode", choices=("homography", "rotation"), default=None)
    _add_config_flags(p)

    p = sub.add_parser("train", help="fit the per-frame cluster classifier")
    p.add_argument("--features", required=True, help="feature JSONL from cluster")
    p.add_argument("--bank", required=True, help="bank JSON: each feature row's class is its pose's cluster")
    p.add_argument("--classifier", choices=("forest", "knn"), default="forest")
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--knn-k", dest="knn_k", type=int, default=None)
    p.add_argument("--loo", action="store_true", help="print knn leave-one-out accuracy")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("infer", help="decode a pose path from camera motion")
    p.add_argument("--input", required=True, help="homography or correspondence JSONL")
    p.add_argument("--bank", required=True)
    p.add_argument("--cluster-model", dest="cluster_model", required=True)
    p.add_argument("--classifier-model", dest="classifier_model")
    p.add_argument("--static-h", dest="static_h", help="per-frame sitting probability JSONL")
    p.add_argument("--features", help="training features, needed by --solver kdtree")
    p.add_argument("--solver", choices=SOLVERS, default="paper")
    p.add_argument("--out", required=True, help="pose path output JSONL; the poses go to <out>_poses.jsonl")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--prune", type=float, default=None)
    p.add_argument("--config", help="JSON config; flags override its values")

    p = sub.add_parser("eval", help="per-joint error report, prediction vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="report JSON output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "cluster": cmd_cluster,
        "train": cmd_train,
        "infer": cmd_infer,
        "eval": cmd_eval,
    }
    try:
        code = handlers[args.cmd](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone
        with contextlib.suppress(OSError, ValueError):  # a stdout that is no file reaches no pipe
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)  # so that the flush at exit raises nothing
        return 141
    except Degenerate as e:
        return _fail(e, 4)
    except EgoPoseError as e:
        return _fail(e, 3)
    except (OSError, ValueError, KeyError) as e:
        return _fail(e, 3)


if __name__ == "__main__":
    sys.exit(main())
