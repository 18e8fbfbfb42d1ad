"""egopose benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload knn-bank10k --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ beside this directory.
A run generates the workload's inputs from --seed, sets the model up five
times, then decodes every test recording in rounds until --seconds have
passed (at least one round), and checks every decode. With --trace 0 the
last line of standard output holds the end_to_end metrics of BENCHMARK.json,
measured with no spans recorded; with --trace 1 it holds the per_layer
metrics of a traced run. The line before it records the environment, the samples, and a digest
of each recording's decoded path and energy. The exit code is 0 only when
every set-up and decode succeeded and passed the output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_SETUPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke run")
    return p.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports, when numpy links OpenBLAS."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({w for line in f for w in line.split() if "openblas" in w and ".so" in w})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/self/status") as f:
            threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "process_threads": threads,
        "git_commit": git_commit(),
    }


def run(args, workloads, layers, spans) -> tuple[dict, dict]:
    patches = spans.Patches()
    recorder = spans.Recorder() if args.trace else spans.Unrecorded()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        probe = workloads.Probe(patches, recorder, keep_all=bool(args.trace))
        wl = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir, probe, recorder.span)
        hooks = layers.Layers(recorder, patches, probe) if args.trace else None
        return measure(args, wl, probe, recorder, hooks, workloads)
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def measure(args, wl, probe, recorder, hooks, workloads):
    span = recorder.span
    attempted = failed = 0
    problems = []

    def failure(*what):
        nonlocal failed
        failed += 1
        problems.extend(what)
        for line in what:
            print(f"perfbench: {line}", file=sys.stderr)

    with span("generate"):
        wl.generate()

    # decodes use the first model set up; the others are only timed
    setup_s, model = [], None
    for rep in range(N_SETUPS):
        attempted += 1
        t0 = time.perf_counter()
        try:
            with span("setup"):
                built = wl.setup(rep)
        except Exception:
            traceback.print_exc()
            failure(f"set-up {rep} raised")
            continue
        setup_s.append(time.perf_counter() - t0)
        if model is None:
            model = built
        del built  # free a model that is only timed before the next set-up
    if model is None:
        return {}, {"problems": problems, "attempted": attempted, "failed": failed}

    decode_s, frames, rounds = [], 0, 0
    first, digests = {}, {}
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for r in range(len(wl.recordings)):
            attempted += 1
            probe.reset()
            recorder.recording = r
            t0 = time.perf_counter()
            try:
                with span("decode"):
                    raw = wl.decode(model, r)
                dt = time.perf_counter() - t0
                with span("collect"):
                    d = wl.collect(model, r, raw)
            except Exception:
                traceback.print_exc()
                failure(f"decode of recording {r} raised")
                continue
            found, digest = workloads.check_decode(d, wl.recordings[r].n_frames, wl.path_params, wl.energy_tol)
            if digest is not None and digests.setdefault(r, digest) != digest:
                found.append(f"recording {r}: decoded path {digest} differs from {digests[r]} of an earlier decode")
            if found:
                failure(*found)
                continue
            decode_s.append(dt)
            frames += len(d.centers)
            first.setdefault(r, d)
        rounds += 1
    recorder.recording = None

    acc = {}
    if len(first) == len(wl.recordings):
        with span("evaluate"):
            acc = wl.evaluate(model, [first[r] for r in sorted(first)])
        if not acc["joint_error_cm"] < acc["baseline_cm"]:
            problems.append(
                f"joint error {acc['joint_error_cm']:.3f} cm does not beat the "
                f"always-standing baseline {acc['baseline_cm']:.3f} cm"
            )
        problems.extend(acc.get("problems", []))

    info = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"setups": len(setup_s), "decodes": len(decode_s), "rounds": rounds, "frames": frames},
        "setup_s": setup_s,
        "decode_s": decode_s,
        "digests": {str(r): digests[r] for r in sorted(digests)},
        "baseline_cm": acc.get("baseline_cm"),
    }
    if not decode_s or not acc:
        return {}, info
    m = {
        "setup_s": statistics.median(setup_s),
        "decode_fps": frames / sum(decode_s),
        "decode_s_p50": statistics.median(decode_s),
        "joint_error_cm": acc["joint_error_cm"],
        "sit_label_acc": acc["sit_label_acc"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (attempted - failed) / attempted,
    }
    if hooks is None:
        return m, info
    lm = hooks.metrics(
        n_setups=len(setup_s),
        n_rounds=rounds,
        recordings=wl.recordings,
        true_h=wl.true_homographies(),
        model_sizes=wl.model_sizes(model),
        setup_s=m["setup_s"],
        decode_fps=m["decode_fps"],
    )
    info["self_s"] = hooks.self_time_table(len(setup_s), rounds)
    return lm, info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "egopose" / "__init__.py").is_file():
        print(f"perfbench: no egopose sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, info = run(args, workloads, layers, spans)
    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    correct = bool(values) and not info["problems"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "env": environment(),
        **info,
    }
    print(json.dumps(info))
    result = {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names if n in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
