"""The benchmark's two workloads, each generated from one seed.

knn-bank10k drives the library (train_models + infer) in the configuration
that acceptance criterion 5 gates. forest-cli drives the command line the
way a user does (cluster with correspondence files, train, infer, eval) at
the CLI defaults, with only the tree count and the recording lengths cut so
that one run fits the time budget.

Every workload exposes the same steps, which run.py times:
  generate()        make the inputs (excluded from every end-to-end metric)
  setup(rep)        inputs -> a model ready to decode            (setup_s);
                    rep seeds k-means and the classifier, so the set-up
                    median spans several initialisations
  decode(model, r)  decode test recording r                      (decode_*)
  collect(model, r) read what the decode returned to the user (untimed)
  evaluate(decodes) joint error, sit-label accuracy, the baseline, and any
                    disagreement found on the way (untimed)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import egopose.cli as cli
import egopose.evaluation as evaluation
import egopose.pipeline as pipeline
from egopose import (
    Frame,
    InfeasiblePath,
    MotionScript,
    PathParams,
    Pose,
    PoseSequence,
    SitStand,
    Trellis,
    baseline_constant,
    energy_of_path,
    generate,
    normalize_pose,
    valid_feature_centers,
)
from egopose.skeleton import load_pose_sequence_with_times

from spans import timed

UP = np.array([0.0, 0.0, 1.0])
WINDOW = 30
ENERGY_KEYS = ("U", "T", "V", "S", "total")

# Acceptance criterion 5: one 1 840-frame training stream (six of them give
# the 10 800-pose bank) and a 660-frame test recording.
CRIT5_TRAIN = [
    ("stand_idle", 120), ("sit_down", 60), ("sit_idle", 180), ("stand_up", 60),
    ("walk", 240), ("turn_left", 60), ("stand_idle", 80), ("walk", 180),
    ("turn_right", 60), ("stand_idle", 120), ("sit_down", 70), ("sit_idle", 180),
    ("stand_up", 70), ("turn_right", 60), ("walk", 120), ("turn_left", 60),
    ("stand_idle", 80),
]
CRIT5_TEST = [
    ("stand_idle", 100), ("sit_down", 60), ("sit_idle", 120), ("stand_up", 60),
    ("walk", 180), ("turn_right", 60), ("stand_idle", 80),
]
# Test recordings: the criterion-5 script and two reorderings of the same
# motions at the same length. Homographies carry no noise, so recordings that
# shared a script would decode identically. Every change of motion also occurs
# in the training script: with kNN rows that hold exact zeros, an unseen one
# (walk -> sit_down, say) leaves no feasible path, and infer then falls back
# to a DP over the whole 10 800-pose bank.
TEST_SCRIPTS = [
    CRIT5_TEST,
    [
        ("walk", 150), ("turn_left", 60), ("stand_idle", 90), ("sit_down", 60),
        ("sit_idle", 150), ("stand_up", 60), ("walk", 90),
    ],
    [
        ("stand_idle", 80), ("walk", 120), ("turn_right", 60), ("stand_idle", 100),
        ("sit_down", 60), ("sit_idle", 120), ("stand_up", 60), ("turn_right", 60),
    ],
]
# Acceptance criterion 3: the two training streams (3 660 frames together).
CRIT3_TRAIN = [
    [
        ("stand_idle", 140), ("sit_down", 60), ("sit_idle", 330), ("stand_up", 60),
        ("walk", 310), ("turn_left", 60), ("walk", 190), ("stand_idle", 140),
        ("sit_down", 90), ("sit_idle", 320), ("stand_up", 90), ("turn_right", 40),
    ],
    [
        ("walk", 310), ("stand_idle", 150), ("sit_down", 75), ("sit_idle", 310),
        ("stand_up", 75), ("walk", 230), ("turn_right", 90), ("stand_idle", 150),
        ("sit_down", 45), ("sit_idle", 290), ("stand_up", 45), ("turn_left", 60),
    ],
]


def scaled(script, factor: float):
    """The same motion with every segment shortened by factor (>= 10 frames)."""
    return [(prim, max(10, int(round(n * factor)))) for prim, n in script]


def script_seeds(seed: int, n: int) -> list[int]:
    """n script seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


@dataclass
class Recording:
    """A generated test recording plus the truth the checks compare against."""

    synth: object  # egopose SynthResult
    gt: np.ndarray  # (n_frames, 75) wearer-local ground-truth pose vectors
    files: dict | None = None  # synth output files (forest-cli only)

    @classmethod
    def of(cls, result, files=None):
        gt = np.stack([normalize_pose(p, UP).to_vector() for p in result.poses.poses])
        return cls(result, gt, files)

    @property
    def n_frames(self) -> int:
        return len(self.synth.poses)


@dataclass
class Decode:
    """What one decode returned to its user, plus the trellis behind it."""

    recording: int
    centers: np.ndarray  # frame index of each decoded pose
    poses: np.ndarray  # (M, 75) decoded wearer-local pose vectors
    indices: np.ndarray  # decoded exemplar per center
    clusters: np.ndarray  # cluster of each decoded exemplar
    energy: dict  # U/T/V/S/total as reported
    trellis: Trellis | None  # the trellis the successful DP call solved


def check_decode(d: Decode, n_frames: int, params: PathParams, tol: float):
    """Output checks for one decode: (problems, digest of path and energy).

    The decode must return one pose per feature center, and energy_of_path on
    the trellis that produced the path must reproduce the reported U/T/V/S.
    """
    expected = valid_feature_centers(n_frames, WINDOW)
    sizes = {len(d.centers), len(d.poses), len(d.indices), len(d.clusters)}
    if sizes != {len(expected)} or not np.array_equal(d.centers, expected):
        return [f"recording {d.recording}: {sorted(sizes)} outputs for {len(expected)} centers"], None
    if d.trellis is None:
        return [f"recording {d.recording}: no successful DP call seen"], None
    try:
        redo = energy_of_path(d.trellis, d.indices, params).energy_dict()
    except (InfeasiblePath, ValueError) as e:
        return [f"recording {d.recording}: path does not fit its trellis: {e}"], None
    problems = [
        f"recording {d.recording}: {k} reported {d.energy.get(k)!r}, recomputed {redo[k]!r}"
        for k in ENERGY_KEYS
        if not abs(d.energy.get(k, float("nan")) - redo[k]) <= tol
    ]
    h = hashlib.sha256(np.asarray(d.indices, dtype=np.int64).tobytes())
    h.update(repr([redo[k] for k in ENERGY_KEYS]).encode())
    return problems, h.hexdigest()[:16]


def accuracy(decodes: list, recordings: list, bank, labels) -> dict:
    """Joint error, sit-label accuracy and the always-standing baseline error,
    pooled over every decoded frame of every recording."""
    pred, gt, sit_pred, sit_true = [], [], [], []
    for d in decodes:
        rec = recordings[d.recording]
        pred.append(d.poses)
        gt.append(rec.gt[d.centers])
        sit_pred.append([labels[c] == SitStand.SITTING_LIKE for c in d.clusters])
        sit_true.append(rec.synth.sit_labels[d.centers])
    gt_seq = _sequence(np.vstack(gt))
    err = evaluation.joint_errors(_sequence(np.vstack(pred)), gt_seq).overall_mean_cm
    standing = baseline_constant(bank, labels, SitStand.STANDING_LIKE)
    base = evaluation.joint_errors(PoseSequence([standing] * len(gt_seq)), gt_seq).overall_mean_cm
    sit_acc = float(np.mean(np.concatenate(sit_pred) == np.concatenate(sit_true)))
    return {"joint_error_cm": err, "baseline_cm": base, "sit_label_acc": sit_acc}


def _sequence(vectors) -> PoseSequence:
    return PoseSequence([Pose.from_vector(v, Frame.WEARER_LOCAL) for v in vectors])


class Probe:
    """Keeps what the checks and the layer metrics need from inside the
    library: the trellis and result of every DP call, and the models and
    result of every infer call.

    It wraps egopose.pipeline.solve_paper_dp, and infer where egopose.pipeline
    and egopose.cli look it up, with one span per call; the cost is one extra
    Python call per DP attempt and per decode. Unless keep_all is set, it
    keeps the records of the current decode only.
    """

    def __init__(self, patches, recorder, keep_all: bool):
        self.keep_all = keep_all
        self.dp = []  # (trellis, span, PosePath or None when the call raised)
        self.infers = []  # (recording, models, InferenceResult)
        self.models = None  # the models the last infer call was given
        self.mark = 0  # first record of the current decode
        patches.wrap(pipeline, "solve_paper_dp", timed(recorder, "pathopt.dp", self._dp))
        for mod in (pipeline, cli):
            patches.wrap(mod, "infer", timed(recorder, "pipeline.infer", self._infer))

    def reset(self):
        """Start a decode."""
        if not self.keep_all:
            self.dp.clear()
            self.infers.clear()
        self.mark = len(self.dp)

    @property
    def trellis(self):
        """The trellis of the current decode's last successful DP call."""
        solved = [t for t, _, path in self.dp[self.mark :] if path is not None]
        return solved[-1] if solved else None

    def _dp(self, args, kwargs, result, span):
        self.dp.append((args[0], span, result))

    def _infer(self, args, kwargs, result, span):
        self.models = args[1]
        if result is not None:
            self.infers.append((span.recording, args[1], result))


class KnnBank10k:
    """Library path, acceptance-criterion-5 configuration: six training
    streams with exact homographies (10 800-pose bank), K=300, kNN k=20,
    window 30, paper solver, scripted static prior, 660-frame test recordings.
    """

    name = "knn-bank10k"
    energy_tol = 1e-9  # the library returns the energies unrounded

    def __init__(self, seed: int, toy: bool, workdir: str, probe: Probe, span):
        self.seed, self.probe = seed, probe
        self.n_train = 2 if toy else 6
        self.train_script = scaled(CRIT5_TRAIN, 0.25) if toy else CRIT5_TRAIN
        self.test_scripts = [scaled(s, 0.3 if toy else 1.0) for s in TEST_SCRIPTS[:2]]
        self.k = 20 if toy else 300
        self.path_params = PathParams()

    def generate(self):
        seeds = script_seeds(self.seed, self.n_train + len(self.test_scripts))
        self.train = [generate(MotionScript(self.train_script, seed=s)) for s in seeds[: self.n_train]]
        self.recordings = [
            Recording.of(generate(MotionScript(script, seed=s)))
            for script, s in zip(self.test_scripts, seeds[self.n_train :])
        ]

    def setup(self, rep: int):
        return pipeline.train_models(
            [s.poses for s in self.train],
            [s.homographies for s in self.train],
            k=self.k,
            window=WINDOW,
            classifier="knn",
            knn_k=20,
            seed=rep,
        )

    def decode(self, models, r: int):
        test = self.recordings[r].synth
        return pipeline.infer(test.homographies, models, static_h=test.static_h)

    def collect(self, models, r: int, result) -> Decode:
        idx = np.asarray(result.path.indices, dtype=int)
        poses = np.stack([p.to_vector() for p in result.poses.poses])
        return Decode(
            r, result.centers, poses, idx, models.bank.cluster_of[idx], result.path.energy_dict(), self.probe.trellis
        )

    def evaluate(self, models, decodes):
        return accuracy(decodes, self.recordings, models.bank, models.cluster.labels)

    def model_sizes(self, models):
        return 0, 0

    def true_homographies(self):
        return {}


class ForestCli:
    """The command line at its DEFAULT_CONFIG (K=300, window 30, prune 0.01,
    delta 0.1, ...): synth outputs -> cluster (with correspondence files, so
    DLT runs on every frame) -> train (forest) -> infer from correspondences
    with --static-h -> eval.

    Cut to fit the run budget, and nothing else: 2 trees instead of 100, the
    two criterion-3 training streams at a third of their length (about 1 220
    poses), and the test scripts at half length. Full size, one 4-tree fit on
    3 602 rows takes about 38 s, so 100 trees would take about 15 minutes;
    set-up runs several times a run.
    """

    name = "forest-cli"
    energy_tol = 1e-6  # infer prints the energies with 6 decimals

    def __init__(self, seed: int, toy: bool, workdir: str, probe: Probe, span):
        self.seed, self.workdir, self.probe, self.span = seed, workdir, probe, span
        self.train_scripts = [scaled(s, 0.1 if toy else 1 / 3) for s in CRIT3_TRAIN]
        self.test_scripts = [scaled(s, 0.3) for s in TEST_SCRIPTS[:2]] if toy else [scaled(s, 0.5) for s in TEST_SCRIPTS]
        self.trees = 1 if toy else 2
        self.extra = ["--k", "20"] if toy else []
        c = cli.DEFAULT_CONFIG
        self.path_params = PathParams(
            delta=c["delta"],
            speed_gamma=c["speed_gamma"],
            speed_mu=c["speed_mu"],
            stat_gamma=c["stat_gamma"],
            stat_mu=c["stat_mu"],
        )

    def _write(self, name: str, script, seed: int):
        result = generate(MotionScript(script, seed=seed))
        out = os.path.join(self.workdir, name)
        manifest = result.write(out)
        return result, {k: os.path.join(out, v) for k, v in manifest["files"].items()}

    def generate(self):
        n_train = len(self.train_scripts)
        seeds = script_seeds(self.seed, n_train + len(self.test_scripts))
        self.train = [self._write(f"train{i}", s, seed) for i, (s, seed) in enumerate(zip(self.train_scripts, seeds))]
        self.recordings = [
            Recording.of(*self._write(f"test{r}", s, seed))
            for r, (s, seed) in enumerate(zip(self.test_scripts, seeds[n_train:]))
        ]

    def run_cli(self, argv) -> str:
        out = io.StringIO()
        with self.span("cli." + argv[0]), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"egopose {argv[0]} exited with {code}")
        return out.getvalue()

    def setup(self, rep: int):
        model = os.path.join(self.workdir, f"model{rep}")
        self.run_cli(
            ["cluster", "--poses", *[f["poses"] for _, f in self.train]]
            + ["--homographies", *[f["correspondences"] for _, f in self.train]]
            + ["--out", os.path.join(model, "clusters.json"), "--seed", str(rep)]
            + self.extra
        )
        self.run_cli(
            ["train", "--features", os.path.join(model, "features.jsonl")]
            + ["--bank", os.path.join(model, "bank.json"), "--trees", str(self.trees)]
            + ["--out", os.path.join(model, "forest.json"), "--seed", str(rep)]
        )
        return model

    def model_sizes(self, model: str):
        """Bytes of the model directory, and of the forest file in it."""
        return sum(e.stat().st_size for e in os.scandir(model)), os.path.getsize(os.path.join(model, "forest.json"))

    def _out(self, r: int) -> str:
        return os.path.join(self.workdir, f"out{r}")

    def decode(self, model: str, r: int):
        files = self.recordings[r].files
        return self.run_cli(
            ["infer", "--input", files["correspondences"], "--static-h", files["static_h"]]
            + ["--bank", os.path.join(model, "bank.json")]
            + ["--cluster-model", os.path.join(model, "clusters.json")]
            + ["--classifier-model", os.path.join(model, "forest.json")]
            + ["--out", os.path.join(self._out(r), "path.jsonl")]
        )

    def collect(self, model: str, r: int, stdout: str) -> Decode:
        line = next((ln for ln in stdout.splitlines() if ln.startswith("energy: ")), "")
        energy = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
        with open(os.path.join(self._out(r), "path.jsonl")) as f:
            recs = [json.loads(ln) for ln in f if ln.strip()]
        seq, times = load_pose_sequence_with_times(os.path.join(self._out(r), "path_poses.jsonl"))
        return Decode(
            r,
            times,
            seq.as_matrix(),
            np.array([rec["exemplar"] for rec in recs], dtype=int),
            np.array([rec["cluster"] for rec in recs], dtype=int),
            energy,
            self.probe.trellis,
        )

    def evaluate(self, model: str, decodes):
        # the user's view: the eval subcommand, pooled over all decoded frames
        total = frames = 0.0
        for d in decodes:
            report = os.path.join(self._out(d.recording), "eval.json")
            self.run_cli(
                ["eval", "--pred", os.path.join(self._out(d.recording), "path_poses.jsonl")]
                + ["--gt", self.recordings[d.recording].files["poses"], "--out", report]
            )
            with open(report) as f:
                total += json.load(f)["overall_mean_cm"] * len(d.centers)
            frames += len(d.centers)
        models = self.probe.models
        acc = accuracy(decodes, self.recordings, models.bank, models.cluster.labels)
        if not abs(total / frames - acc["joint_error_cm"]) <= 1e-6:
            acc["problems"] = [f"eval subcommand reports {total / frames!r} cm, library {acc['joint_error_cm']!r} cm"]
        acc["joint_error_cm"] = total / frames
        return acc

    def true_homographies(self):
        streams = self.train + [(rec.synth, rec.files) for rec in self.recordings]
        return {files["correspondences"]: result.homographies for result, files in streams}


WORKLOADS = {w.name: w for w in (KnnBank10k, ForestCli)}
