"""The benchmark's hooks into the package.

perfbench/ times the library by wrapping its functions where their callers
look them up (ROADMAP, "What perfbench/ pins"). A pinned name that is removed
or moved makes every benchmark run fail with a KeyError; these tests install
the hooks the way a traced run does, so such a change fails here first. They
also run a traced CLI decode and a traced library decode, the paths of the
forest-cli and knn-bank10k workloads.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import egopose.cli as cli
import egopose.evaluation as evaluation
import egopose.pipeline as pipeline
from egopose import MotionScript, energy_of_path, generate, train_models
from egopose.classify import ForestModel, KnnModel
from egopose.clustering import ClusterModel, ExemplarBank
from egopose.evaluation import ErrorReport
from egopose.pathopt import PosePath, Trellis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, evaluation, pipeline, ForestModel, KnnModel, ClusterModel, ExemplarBank, ErrorReport, PosePath, Trellis)


@contextlib.contextmanager
def traced(monkeypatch):
    """The benchmark's hooks, installed as a traced run installs them; yields
    their Layers (with .rec and .probe), and restores every hooked name on
    exit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    import workloads

    patches, recorder = spans.Patches(), spans.Recorder()
    try:
        yield layers.Layers(recorder, patches, workloads.Probe(patches, recorder, keep_all=True))
    finally:
        patches.restore()


def test_benchmark_hooks_install_and_restore(monkeypatch):
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    with traced(monkeypatch):
        wrapped = {(owner, name) for owner in OWNERS for name, v in vars(owner).items() if v is not before[owner][name]}
    assert {(cli, "infer"), (cli, "load_features"), (cli, "save_features"), (ExemplarBank, "load")} <= wrapped
    for owner in OWNERS:
        assert all(vars(owner)[name] is v for name, v in before[owner].items()), owner


def assert_figures_read_the_trellis(lay, trellis, bank):
    """The widths and predecessor counts the benchmark reads through the
    trellis's .frames view equal those of its .indices."""
    import layers

    widths = np.array([len(idx) for idx in trellis.indices])
    figures = lay._solved_trellises()
    assert figures["pathopt.width_mean"] == widths.mean() and figures["pathopt.width_max"] == widths.max()
    assert figures["costs.kept_ratio"] == widths.sum() / (len(widths) * len(bank.poses))
    counts = [np.bincount(bank.cluster_of[idx], minlength=bank.k) for idx in trellis.indices]
    adjacent = bank.adjacent.astype(np.int64)
    assert layers._pred_evals(trellis) == sum(int(c @ adjacent @ p) for p, c in zip(counts, counts[1:]))


def test_cli_decode_records_a_span_for_each_file_it_reads_and_writes(monkeypatch, tmp_path):
    """A load or write that moves off the binding the benchmark wraps would
    read 0 in the per-layer numbers instead of failing; here it fails. At
    --prune 0 the decode solves the full-bank trellis, whose keep mask is one
    broadcast True, and the benchmark's reads of it must still hold."""
    synth = generate(MotionScript([("stand_idle", 20), ("sit_down", 20), ("sit_idle", 20)], seed=3))
    synth.write(tmp_path / "data")
    train_models([synth.poses], [synth.homographies], k=4, window=8, n_trees=2).save(tmp_path / "model")
    out = tmp_path / "out" / "path.jsonl"
    argv = ["infer", "--input", str(tmp_path / "data" / "homographies.jsonl"), "--prune", "0"]
    argv += ["--static-h", str(tmp_path / "data" / "static_h.jsonl"), "--out", str(out)]
    for flag, name in (("--bank", "bank"), ("--cluster-model", "clusters"), ("--classifier-model", "forest")):
        argv += [flag, str(tmp_path / "model" / f"{name}.json")]
    with traced(monkeypatch) as lay:
        with lay.rec.span("decode"), contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(argv) == 0
    names = {sp.name for sp in lay.rec.spans}
    loads = {"clustering.bank_load", "io.ClusterModel.load", "io.cli.load_static"}
    assert loads | {"io.cli.save_pose_sequence", "io.PosePath.save"} <= names

    trellis = lay.probe.trellis
    assert trellis.keep.strides == (0, 0) and trellis.keep.all()
    ((_, models, result),) = lay.probe.infers
    written = [rec["exemplar"] for rec in map(json.loads, out.read_text().splitlines())]
    energies = energy_of_path(trellis, written).energy_dict()
    assert energies == result.path.energy_dict()
    assert "energy: U={U:.6f} T={T:.6f} V={V:.6f} S={S:.6f} total={total:.6f}".format(**energies) in stdout.getvalue()
    assert_figures_read_the_trellis(lay, trellis, models.bank)


def test_library_decode_reads_the_trellis_it_solved(monkeypatch):
    """knn-bank10k's path: the cost, prune and DP spans, the energies the
    benchmark recomputes on the probe's trellis, and the widths and bytes it
    reads through the trellis's .frames, .indices and .costs views."""
    scripts = [[("stand_idle", 20), ("sit_down", 20), ("sit_idle", 20)], [("walk", 30), ("stand_idle", 20)]]
    train = [generate(MotionScript(script, seed=s)) for s, script in enumerate(scripts, 3)]
    test = generate(MotionScript([("stand_idle", 15), ("walk", 25)], seed=9))
    models = train_models([t.poses for t in train], [t.homographies for t in train], k=4, window=8, classifier="knn", knn_k=5)
    with traced(monkeypatch) as lay:
        with lay.rec.span("decode"):
            result = pipeline.infer(test.homographies, models, static_h=test.static_h)
    assert {"costs.unary", "costs.prune", "pathopt.dp"} <= {sp.name for sp in lay.rec.spans}
    trellis = lay.probe.trellis
    assert energy_of_path(trellis, result.path.indices).energy_dict() == result.path.energy_dict()

    bank = models.bank
    assert_figures_read_the_trellis(lay, trellis, bank)
    # the tracer builds every frame's index and cost arrays of unary_costs' trellis on access
    cells = len(result.centers) * len(bank.poses)
    assert lay.unary_bytes == [cells * (np.arange(1).itemsize + trellis.table.itemsize)]
