"""cibpath benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mini-pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced operations and reports
per-layer metrics from the traced ones.  Human-readable lines come first;
the last line of standard output is one JSON object.  See README.md in this
directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_cibpath() -> float:
    """Import the package from this checkout's src/; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "cibpath", "__init__.py")):
        raise SystemExit(f"perfbench: no cibpath sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cibpath  # noqa: F401
    import cibpath.pipeline  # noqa: F401  (imports every layer)

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(cibpath.__file__)) != os.path.join(SRC, "cibpath"):
        raise SystemExit(f"perfbench: imported cibpath from {cibpath.__file__}, not {SRC}")
    return elapsed


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(os.path.join(ROOT, ".git", ref))
    if value:
        return value
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unresolved {ref}"


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: a probe of how fast the host runs
    at the moment, recorded at start and end to diagnose noise."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "loadavg_start": _read("/proc/loadavg"),
        "reference_loop_s_start": reference_loop_s(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run operations one after another until ``seconds`` have passed.

    With a tracer, operations alternate untraced and traced, and the loop
    also continues until one of each has been attempted.
    """
    from bench_trace import Clock

    clock = Clock()
    ops = {"untraced": [], "traced": []}
    tried = {"untraced": 0, "traced": 0}
    failures = []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        mode = "traced" if tracer is not None and tried["untraced"] > tried["traced"] else "untraced"
        timer = tracer if mode == "traced" else clock
        timer.start_op(op_id)
        ran = False
        try:
            if mode == "traced":
                with tracer.installed():
                    workload.run(tracer)
            else:
                workload.run(clock)
            ran = True
            errors = workload.check()
        except Exception as e:  # an operation that raises is counted, not fatal
            errors = [f"{type(e).__name__}: {e}"]
        tried[mode] += 1
        if ran:
            ops[mode].append((op_id, dict(timer.phases), {} if errors else workload.counts()))
        if errors:
            failures.append({"op": op_id, "mode": mode, "errors": errors[:5]})
        op_id += 1
        if time.perf_counter() >= deadline and (tracer is None or tried["traced"] > 0):
            break
    return {"ops": ops, "attempted": op_id, "failures": failures}


def _median_of(rows: list, key) -> float:
    vals = [key(r) for r in rows]
    return statistics.median(vals) if vals else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None, workroot=None):
    """Set up, measure and check one workload.

    Returns ``(result, report, details, tracer)``: the final JSON line's
    object, the human-readable lines, a record for the results file
    (environment, per-phase timings, error rate, digests, failures), and the
    tracer (None when untraced).
    """
    import_s = import_cibpath()
    sys.path.insert(0, HERE)
    import bench_workloads as bw
    from bench_trace import PER_LAYER_UNITS, Tracer, per_layer_metrics

    env = environment(seed)
    workload = bw.WORKLOADS[name](seed, sizes or bw.Sizes())
    workroot = workroot or os.path.join(HERE, ".work")
    workdir = os.path.join(workroot, f"{name}-{os.getpid()}")
    tracer = Tracer() if trace else None
    report = [f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    try:
        setup_times = []
        for k in range(1 if trace else workload.setup_repeats):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            if trace:
                tracer.start_op("setup")
                with tracer.installed():
                    workload.setup(workdir)
            else:
                workload.setup(workdir)
            setup_times.append(time.perf_counter() - t0)
        run = measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _read("/proc/loadavg")
    env["reference_loop_s_end"] = reference_loop_s()

    untraced = run["ops"]["untraced"]
    attempted, failed = run["attempted"], len(run["failures"])
    summary = {"error_rate": {"value": failed / attempted, "unit": "ratio"}}
    phase_names = list(untraced[0][1]) if untraced else []
    for phase in phase_names:
        vals = [phases[phase] for _, phases, _ in untraced]
        summary[phase] = {
            "median": statistics.median(vals), "p90": p90(vals), "n": len(vals), "unit": "s"
        }
    op_totals = [sum(phases.values()) for _, phases, _ in untraced]
    op_s = statistics.median(op_totals) if op_totals else 0.0

    for k, v in env.items():
        report.append(f"env {k}={v}")
    for phase in phase_names:
        s = summary[phase]
        report.append(f"e2e {phase} median={s['median']:.4f} p90={s['p90']:.4f} n={s['n']} unit=s")
    report.append(f"e2e error_rate value={failed / attempted:.4f} failed={failed} attempted={attempted} unit=ratio")
    if workload.first_digests:
        report.append("digest " + " ".join(f"{k}={v}" for k, v in workload.first_digests.items()))
    for f in run["failures"]:
        report.append(f"failure op={f['op']} mode={f['mode']} {'; '.join(f['errors'])}")

    if not trace:
        metrics = {
            "op_s": op_s,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        report.append(
            f"setup import_s={import_s:.4f} workload_setup_s="
            + ",".join(f"{t:.4f}" for t in setup_times)
        )
    else:
        traced = run["ops"]["traced"]
        rows = per_layer_metrics(
            tracer, traced, workload.layer_phases, workload.parallel_phase, bw.PARALLEL_WORKERS
        )
        metrics = {k: _median_of(rows, lambda r, k=k: r.get(k, 0.0)) for k in PER_LAYER_UNITS}
        untraced_layer = _median_of(untraced, lambda r: sum(r[1][p] for p in workload.layer_phases))
        traced_total = _median_of(traced, lambda r: sum(r[1].values()))
        metrics["trace.untraced_op_s"] = untraced_layer
        metrics["trace.overhead_ratio"] = traced_total / op_s if op_s else 0.0
        self_sum = sum(
            v for k, v in metrics.items()
            if k.endswith(".self_s") or k in ("pipeline.glue_s", "trace.bench_self_s")
        )
        report.append(
            f"blocking-path phases={'+'.join(workload.layer_phases)} sum_self_s={self_sum:.4f} "
            f"traced_s={metrics.get('trace.op_s', 0.0):.4f} untraced_s={untraced_layer:.4f} "
            f"overhead_ratio={metrics['trace.overhead_ratio']:.4f}"
        )
        report.append(
            "trace spans are recorded in this process only; per-layer numbers come from "
            "the 1-worker phases, and a worker pool's children contribute only the wait "
            "seen by their parent"
        )

    metrics_doc = {
        k: {"value": float(v), "unit": END_TO_END_UNITS.get(k) or PER_LAYER_UNITS[k]}
        for k, v in metrics.items()
    }
    for k, v in metrics_doc.items():
        report.append(f"metric {k} {v['value']:.6g} {v['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_doc,
    }
    details = {
        "environment": env,
        "summary": summary,
        "ops": {mode: [phases for _, phases, _ in rows] for mode, rows in run["ops"].items()},
        "setup_s": setup_times,
        "import_s": import_s,
        "digests": workload.first_digests,
        "failures": run["failures"],
        **result,
    }
    return result, report, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mini-pipeline", "rescreen-10k", "attractors-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report, details, tracer = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    report.append(f"details written to {os.path.relpath(fh.name, ROOT)}")
    if tracer is not None:
        # One span file per workload, overwritten by its latest traced run.
        spans = os.path.join(results, f"spans-{args.workload}.tsv.gz")
        tracer.write(spans)
        report.append(f"{len(tracer.start)} spans written to {os.path.relpath(spans, ROOT)}")
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
