"""The benchmark's hooks into the package.

perfbench/ times the library by wrapping its functions where their callers
look them up (ROADMAP, "What perfbench/ pins"). A pinned name that is removed
or moved makes every benchmark run fail with a KeyError; this test installs
the hooks the way a traced run does, so such a change fails here first.
"""

from pathlib import Path

import egopose.cli as cli
import egopose.evaluation as evaluation
import egopose.pipeline as pipeline
from egopose.classify import ForestModel, KnnModel
from egopose.clustering import ClusterModel, ExemplarBank
from egopose.evaluation import ErrorReport
from egopose.pathopt import PosePath, Trellis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, evaluation, pipeline, ForestModel, KnnModel, ClusterModel, ExemplarBank, ErrorReport, PosePath, Trellis)


def test_benchmark_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    import workloads

    before = {owner: dict(vars(owner)) for owner in OWNERS}
    patches, recorder = spans.Patches(), spans.Recorder()
    try:
        probe = workloads.Probe(patches, recorder, keep_all=True)
        layers.Layers(recorder, patches, probe)
        wrapped = {(owner, name) for owner in OWNERS for name, v in vars(owner).items() if v is not before[owner][name]}
    finally:
        patches.restore()
    assert {(cli, "infer"), (cli, "load_features"), (cli, "save_features"), (ExemplarBank, "load")} <= wrapped
    for owner in OWNERS:
        assert all(vars(owner)[name] is v for name, v in before[owner].items()), owner
