"""Per-layer metrics of a traced run.

Layers wraps each public egopose function where its caller looks it up,
records a span per call and keeps the call's counters (k-means iterations,
forest nodes, ...); the DP and infer calls come from the workload's Probe.
metrics() reduces them to one value per per_layer name of BENCHMARK.json, as
the work of one pass: one set-up plus one decode of every test recording
(set-up and decode totals are divided by the number of set-ups and of decode
rounds). A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import numpy as np

import egopose.cli as cli
import egopose.evaluation as evaluation
import egopose.pipeline as pipeline
from egopose.classify import ForestModel, KnnModel
from egopose.clustering import ClusterModel, ExemplarBank, assign_clusters
from egopose.evaluation import ErrorReport
from egopose.pathopt import PosePath, Trellis

from spans import timed

# load and save functions the CLI calls, at the binding the CLI uses
IO_FUNCTIONS = [
    (cli, "load_pose_sequence_with_times"),
    (cli, "save_pose_sequence"),
    (cli, "load_homographies"),
    (cli, "load_features"),
    (cli, "save_features"),
    (cli, "load_static"),
    (ClusterModel, "load"),
    (ClusterModel, "save"),
    (ExemplarBank, "save"),
    (ForestModel, "save"),
    (KnnModel, "save"),
    (PosePath, "save"),
    (ErrorReport, "save"),
]
# model loads that count both as their layer and as CLI I/O
IO_LAYER_SPANS = {"clustering.bank_load", "classify.model_load"}


def _forest_nodes(model) -> int:
    count, stack = 0, list(model.trees)
    while stack:
        node = stack.pop()
        count += 1
        if "hist" not in node:
            stack += [node["left"], node["right"]]
    return count


def _pred_evals(trellis) -> int:
    """Candidate x predecessor pairs in the same or a neighboring cluster:
    the size of the DP's dense comparisons, summed over frames."""
    bank = trellis.bank
    adj = np.zeros((bank.k, bank.k), dtype=np.int64)
    for c, nb in enumerate(bank.neighbors):
        adj[c, nb] = 1
    counts = [np.bincount(bank.cluster_of[idx], minlength=bank.k) for idx, _ in trellis.frames]
    return int(sum(cur @ adj @ prev for prev, cur in zip(counts, counts[1:])))


def _entropy(p) -> np.ndarray:
    logs = np.log(np.where(p > 0, p, 1.0))
    return -(p * logs).sum(axis=1)


class Layers:
    """Installs the layer spans and keeps the counters of a traced run."""

    def __init__(self, recorder, patches, probe):
        self.rec, self.probe = recorder, probe
        self.dlt = []  # (correspondence file, [estimated 3x3 matrices])
        self.kmeans_iters = []  # (phase, iterations)
        self.fits = []  # (phase, ForestModel)
        self.unary_bytes = []

        def hook(owner, attr, name, after=None):
            patches.wrap(owner, attr, timed(recorder, name, after))

        hook(cli, "load_correspondences", "io.cli.load_correspondences", self._stream)
        hook(cli, "estimate_homography", "geometry.dlt", self._dlt)
        for mod in (pipeline, cli):
            hook(mod, "normalized_matrix", "skeleton.normalize")
            hook(mod, "kmeans", "clustering.kmeans", self._kmeans)
            hook(mod, "train_forest", "classify.forest_fit", self._fit)
        hook(ExemplarBank, "build", "clustering.bank_build")
        hook(ExemplarBank, "load", "clustering.bank_load")
        hook(pipeline, "knn_proba", "classify.knn")
        hook(pipeline, "forest_proba_batch", "classify.forest_predict")
        hook(ForestModel, "load", "classify.model_load")
        hook(KnnModel, "load", "classify.model_load")
        hook(pipeline, "unary_costs", "costs.unary", self._unary)
        hook(pipeline, "prune", "costs.prune")
        hook(Trellis, "from_costs", "pathopt.trellis")
        hook(pipeline, "train_models", "pipeline.train_models")
        hook(evaluation, "joint_errors", "evaluation.joint_errors")
        hook(cli, "joint_errors", "evaluation.joint_errors")
        for owner, attr in IO_FUNCTIONS:
            hook(owner, attr, f"io.{owner.__name__.split('.')[-1]}.{attr}")

    # counters, kept at the span boundaries; result is None when the call raised
    def _stream(self, args, kwargs, result, span):
        self.dlt.append((args[0], []))

    def _dlt(self, args, kwargs, result, span):
        if result is not None and self.dlt:
            self.dlt[-1][1].append(result.h)

    def _kmeans(self, args, kwargs, result, span):
        if result is not None:
            self.kmeans_iters.append((span.phase, result.n_iter))

    def _fit(self, args, kwargs, result, span):
        if result is not None:
            self.fits.append((span.phase, result))

    def _unary(self, args, kwargs, result, span):
        if result is not None:
            self.unary_bytes.append(sum(a.nbytes for a in result.indices + result.costs))

    def metrics(self, *, n_setups, n_rounds, recordings, true_h, model_sizes, setup_s, decode_fps) -> dict:
        spans, dp, infers = self.rec.spans, self.probe.dp, self.probe.infers
        ops = {"setup": n_setups, "decode": n_rounds}

        def per_pass(pairs) -> float:
            totals: dict = {}
            for phase, v in pairs:
                totals[phase] = totals.get(phase, 0) + v
            return float(sum(v / ops.get(phase, 1) for phase, v in totals.items()))

        def time_of(*names) -> float:
            return per_pass((s.phase, s.duration) for s in spans if s.name in names)

        def calls_of(*names) -> float:
            return per_pass((s.phase, 1) for s in spans if s.name in names)

        m = {
            "synth.generate_s": time_of("generate"),
            "geometry.dlt_calls": calls_of("geometry.dlt"),
            "geometry.dlt_s": time_of("geometry.dlt"),
            "geometry.h_err_max": self._h_err_max(true_h),
            "skeleton.normalize_s": time_of("skeleton.normalize"),
            "clustering.kmeans_s": time_of("clustering.kmeans"),
            "clustering.kmeans_iters": per_pass(self.kmeans_iters),
            "clustering.bank_build_s": time_of("clustering.bank_build"),
            "clustering.bank_load_s": time_of("clustering.bank_load"),
            "classify.forest_fit_s": time_of("classify.forest_fit"),
            "classify.forest_nodes": per_pass((ph, _forest_nodes(f)) for ph, f in self.fits),
            "classify.oob_accuracy": float(self.fits[-1][1].oob_accuracy) if self.fits else 0.0,
            "classify.knn_queries": calls_of("classify.knn"),
            "classify.knn_s": time_of("classify.knn"),
            "classify.forest_predict_s": time_of("classify.forest_predict"),
            "classify.model_load_s": time_of("classify.model_load"),
            "classify.model_bytes": float(model_sizes[1]),
            "costs.unary_s": time_of("costs.unary"),
            "costs.unary_mb": max(self.unary_bytes, default=0) / 1e6,
            "costs.prune_s": time_of("costs.prune"),
            "costs.prune_calls": calls_of("costs.prune"),
            "pathopt.trellis_s": time_of("pathopt.trellis"),
            "pathopt.dp_calls": calls_of("pathopt.dp"),
            "pathopt.dp_s": time_of("pathopt.dp"),
            "pathopt.dp_infeasible": per_pass((s.phase, 1) for _, s, p in dp if p is None),
            "pathopt.dp_wasted_s": per_pass((s.phase, s.duration) for _, s, p in dp if p is None),
            "pathopt.pred_evals": per_pass((s.phase, _pred_evals(t)) for t, s, _ in dp),
            "pipeline.train_models_s": time_of("pipeline.train_models"),
            "pipeline.infer_s": time_of("pipeline.infer"),
            "pipeline.features_s": per_pass(("decode", r.timings["features_s"]) for _, _, r in infers),
            "pipeline.prune_retries": per_pass(("decode", r.timings["prune_retries"]) for _, _, r in infers),
            "evaluation.joint_errors_s": time_of("evaluation.joint_errors"),
            "cli.cluster_s": time_of("cli.cluster"),
            "cli.train_s": time_of("cli.train"),
            "cli.infer_s": time_of("cli.infer"),
            "cli.eval_s": time_of("cli.eval"),
            "cli.model_bytes": float(model_sizes[0]),
            "cli.io_s": per_pass(
                (s.phase, s.duration) for s in spans if s.name.startswith("io.") or s.name in IO_LAYER_SPANS
            ),
            "trace.setup_s": setup_s,
            "trace.decode_fps": decode_fps,
        }
        m.update(self._decode_quality(recordings))
        m.update(self._solved_trellises())
        selfs = self.rec.self_times()
        roots = [(s, t) for s, t in zip(spans, selfs) if s.name == "decode" and s.parent < 0]
        m["trace.decode_unattributed"] = sum(t for _, t in roots) / sum(s.duration for s, _ in roots)
        return m

    def self_time_table(self, n_setups: int, n_rounds: int) -> dict:
        """Self seconds per pass, by phase and span name. Within a phase they
        sum to the phase's wall time, so they show where that time went."""
        ops = {"setup": n_setups, "decode": n_rounds}
        table: dict = {}
        for s, t in zip(self.rec.spans, self.rec.self_times()):
            row = table.setdefault(s.phase, {})
            row[s.name] = row.get(s.name, 0.0) + t / ops.get(s.phase, 1)
        return table

    def _h_err_max(self, true_h) -> float:
        worst, seen = 0.0, set()
        for path, est in self.dlt:
            if path in seen or path not in true_h:
                continue
            seen.add(path)
            truth = np.stack([h.h for h in true_h[path]])
            worst = max(worst, float(np.abs(np.stack(est) - truth).max()))
        return worst

    def _decode_quality(self, recordings) -> dict:
        """Classifier top-1 accuracy against assign_clusters of the true pose,
        and mean entropy of its rows, over the first decode of each recording."""
        hits = entropy = frames = 0.0
        seen = set()
        for r, models, result in self.probe.infers:
            if r in seen:
                continue
            seen.add(r)
            truth = assign_clusters(models.cluster, recordings[r].gt[result.centers])
            hits += float((result.dists.argmax(axis=1) == truth).sum())
            entropy += float(_entropy(result.dists).sum())
            frames += len(result.centers)
        return {"classify.top1_acc": hits / frames, "classify.entropy_mean": entropy / frames}

    def _solved_trellises(self) -> dict:
        """Figures of the trellises the successful DP calls decoded."""
        solved = [(t, s, p) for t, s, p in self.probe.dp if p is not None]
        widths = [np.array([len(idx) for idx, _ in t.frames]) for t, _, _ in solved]
        frames = sum(len(w) for w in widths)
        bank_cells = sum(len(w) * len(t.bank.poses) for w, (t, _, _) in zip(widths, solved))
        return {
            "costs.kept_ratio": sum(int(w.sum()) for w in widths) / bank_cells,
            "pathopt.dp_ms_per_frame": 1e3 * sum(s.duration for _, s, _ in solved) / frames,
            "pathopt.width_mean": sum(int(w.sum()) for w in widths) / frames,
            "pathopt.width_max": float(max(int(w.max()) for w in widths)),
            "pathopt.energy_per_frame": sum(p.total for _, _, p in solved) / frames,
        }
