"""Smoke run of the benchmark at toy size.

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json it runs run.py --toy with two seeds and
checks that every end-to-end metric is present with its unit and that the
seeds give different accuracy numbers; runs it traced and checks every
per-layer metric, with 0 for the layers the workload does not use; and
runs it in this process with the decoded outputs corrupted (a wrong energy,
a missing pose) to show that the output checks then fail the run. Exits 1 if
any expectation fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOY = ["--toy", "--seconds", "1"]

# layers a workload does not use report 0; the ones it is built on do not
IDLE = {
    "knn-bank10k": [
        "geometry.dlt_calls", "classify.forest_fit_s", "classify.model_bytes", "pathopt.dp_infeasible",
        "cli.cluster_s", "cli.train_s", "cli.infer_s", "cli.eval_s", "cli.model_bytes", "cli.io_s",
    ],
    "forest-cli": ["classify.knn_queries", "classify.knn_s", "pipeline.train_models_s"],
}
BUSY = {
    "knn-bank10k": ["classify.knn_queries", "clustering.kmeans_s", "pathopt.pred_evals", "pipeline.train_models_s"],
    "forest-cli": ["geometry.dlt_calls", "classify.forest_nodes", "pathopt.pred_evals", "cli.io_s", "cli.model_bytes"],
}


def result(code: int, stdout: str):
    lines = stdout.strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TOY, *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    return result(proc.returncode, proc.stdout)


def run_corrupted(name: str, how: str):
    """run.py in this process, with every decode tampered with before its checks."""
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench
    import workloads

    check = workloads.check_decode

    def tampered(d, *args):
        if how == "energy":
            d.energy = dict(d.energy, total=d.energy["total"] + 1.0)
        else:
            d.poses = d.poses[:-1]
        return check(d, *args)

    out = io.StringIO()
    workloads.check_decode = tampered
    try:
        with contextlib.redirect_stdout(out):
            code = bench.main([*TOY, "--workload", name, "--seed", "1", "--trace", "0"])
    finally:
        workloads.check_decode = check
    return result(code, out.getvalue())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def units(res):
        return {name: m["unit"] for name, m in res.get("metrics", {}).items()}

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in (w["name"] for w in spec["workloads"]):
        errors = []
        for seed in (1, 2):
            code, res = run("--workload", name, "--seed", str(seed), "--trace", "0")
            expect(code == 0 and res.get("correct") is True, f"{name} seed {seed}: exits 0 with correct outputs")
            expect(units(res) == e2e, f"{name} seed {seed}: every end-to-end metric, with its unit")
            errors.append(res.get("metrics", {}).get("joint_error_cm", {}).get("value"))
        expect(errors[0] != errors[1], f"{name}: seeds 1 and 2 give different joint errors {errors}")

        code, res = run("--workload", name, "--seed", "1", "--trace", "1")
        values = {n: m["value"] for n, m in res.get("metrics", {}).items()}
        expect(code == 0 and res.get("correct") is True, f"{name} traced: exits 0 with correct outputs")
        expect(units(res) == per_layer, f"{name} traced: every per-layer metric, with its unit")
        expect(all(values.get(n) == 0 for n in IDLE[name]), f"{name} traced: 0 for unused layers {IDLE[name]}")
        expect(all(values.get(n, 0) > 0 for n in BUSY[name]), f"{name} traced: work recorded in {BUSY[name]}")

        for how in ("energy", "count"):
            code, res = run_corrupted(name, how)
            expect(
                code != 0 and res.get("correct") is False and res.get("failed", 0) > 0,
                f"{name}: a corrupted {how} fails the output checks",
            )
    print(f"{len(failures)} expectation(s) failed" if failures else "smoke run passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
