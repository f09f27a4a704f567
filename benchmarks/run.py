"""Run one workload of the treelap benchmark and print its metrics.

    python3 benchmarks/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

--trace 0 repeats passes of the workload for --seconds seconds and reports
the end-to-end metrics.  --trace 1 runs an untraced, a traced and another
untraced pass of the same inputs and reports the per-layer metrics.  Every
output is checked.  The metric names and units come from BENCHMARK.json at
the root of the checkout; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.

Exit status: 0 when every output checked correct, 1 when a check failed,
2 when the benchmark cannot start (no treelap sources beside it, say).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 9
WORKLOAD_NAMES = ("exhaustive", "large_trees", "diam4_sweep", "bound_checks")


def percentile(samples, p: int) -> float:
    """Nearest-rank p-th percentile; refused unless ten samples lie beyond it."""
    n = len(samples)
    if n * (100 - p) < 1000:
        raise ValueError(f"p{p} needs at least {math.ceil(1000 / (100 - p))} samples, got {n}")
    return sorted(samples)[-(-p * n // 100) - 1]


def per_tree_medians(rows: list[list[float]]) -> list[float]:
    """Each position's median over the passes; every pass runs the same inputs
    in the same order, so a burst of outside load in one pass does not move it."""
    rows = [row for row in rows if len(row) == len(rows[0])]  # a failed pass can be shorter
    return [statistics.median(col) for col in zip(*rows)]


def setup_seconds() -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes (import treelap plus a warm-up call),
    calibrated and raw."""
    calibrated, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        setup_s, kernel_s = map(float, proc.stdout.split()[-2:])
        raw.append(setup_s)
        calibrated.append(setup_s * calibrate.REFERENCE_S / kernel_s)
    return calibrated, raw


def machine_info(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = None
    try:  # stop git at the checkout: it must not report an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ} or "unset (library default)",
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def dominant_layer(workload: str, m: dict, wall: float) -> list[tuple[str, bool, str]]:
    """Each workload's stated dominant layer (README.md), tested on the
    traced split.  A mismatch is printed, never hidden."""

    def share(key):
        return m[key][0] / wall

    out = [(
        "charpoly runs only in diam4_sweep",
        (m["charpoly.calls"][0] > 0) == (workload == "diam4_sweep"),
        f"charpoly.calls = {m['charpoly.calls'][0]}",
    )]
    if workload == "large_trees":
        out.append((
            "spectral.count_eigs takes most of large_trees",
            share("spectral.count_eigs.busy_s") > 0.5,
            f"count_eigs busy {share('spectral.count_eigs.busy_s'):.0%} of the traced pass",
        ))
    elif workload == "exhaustive":
        encl = share("spectral.eigenvalues.self_s") + share("spectral.energy.busy_s")
        counts = share("spectral.count_eigs.busy_s")
        out.append((
            "enclosure and energy self time outweigh exact counts in exhaustive",
            encl > counts,
            f"eigenvalues self + energy {encl:.0%}, count_eigs {counts:.0%}",
        ))
    elif workload == "bound_checks":
        bnd = share("bounds.self_s")
        encl = share("spectral.eigenvalues.self_s")
        ints = share("spectral.inertia.busy_s")
        hits = m["spectral.eigenvalues.hit_ratio"][0]
        out.append((
            "bound_checks reads cached spectra more than it computes them, and bounds self time "
            "is its largest share",
            hits > 0.5 and bnd > max(encl, ints),
            f"eigenvalues hit ratio {hits:.2f}; bounds self {bnd:.0%}, eigenvalues self {encl:.0%}, "
            f"integer pass {ints:.0%}",
        ))
    return out


def check_pass(workload, inputs, res, first) -> None:
    """Full output checks on the first pass; later passes of the same inputs
    must reproduce its outputs byte for byte."""
    if first is None:
        workload.check(inputs, res)
    elif res.digest != first.digest:
        res.failures += ["outputs differ from the first pass"] * res.trees


def timed_run(workload, inputs, passdir: Path, seconds: float):
    """Untraced passes until `seconds` are used up; calibrated metrics."""
    pacer = calibrate.Pacer()
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer.assert_unpatched()
        res = workload.run(inputs, passdir, None, pacer)
        pacer.measure()  # brackets the pass's last tree
        check_pass(workload, inputs, res, passes[0] if passes else None)
        passes.append(res)
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            break

    def calibrated(spans):
        return [(b - a) / pacer.slowness(a, b) for a, b in spans]

    tree_s = per_tree_medians([calibrated(r.tree_times) for r in passes])
    other_s = per_tree_medians([calibrated(r.other_times) for r in passes])
    latencies = [s * 1e3 for s in tree_s]
    raw_ms = per_tree_medians([[(b - a) * 1e3 for a, b in r.tree_times] for r in passes])
    metrics = {
        "trees_per_s": (passes[0].trees / (sum(tree_s) + sum(other_s)), "1/s"),
        "tree_ms_p50": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "raw.trees_per_s": (statistics.median(r.trees / r.wall_s for r in passes), "1/s"),
        "raw.tree_ms_p50": (statistics.median(raw_ms), "ms"),
        "calibration.kernel_ms": (statistics.median(pacer.kernel_s) * 1e3, "ms"),
    }
    return passes, metrics, latencies, pacer.kernel_s


def traced_run(workload, inputs, passdir: Path, tol: float):
    """An untraced, a traced and another untraced pass; per-layer metrics."""
    tracer.assert_unpatched()
    first = workload.run(inputs, passdir, None)
    check_pass(workload, inputs, first, None)
    with tracer.Tracer(tol) as tr:
        traced = workload.run(inputs, passdir, tr)
    tracer.assert_unpatched()
    after = workload.run(inputs, passdir, None)
    for res in (traced, after):
        check_pass(workload, inputs, res, first)
    metrics = tr.summary()
    # untraced passes on both sides of the traced one, so drift cancels
    metrics["trace.overhead_share"] = (2 * traced.wall_s / (first.wall_s + after.wall_s) - 1, "share")
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tr.write_spans(spans_dir / f"{workload.name}.tsv")
    return [first, traced, after], metrics, dominant_layer(workload.name, metrics, traced.wall_s)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "treelap" / "__init__.py").is_file():
        print(f"error: no treelap sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import treelap

    if Path(treelap.__file__).resolve().parent != (src / "treelap").resolve():
        print(f"error: imported treelap from {treelap.__file__}, not from {src}", file=sys.stderr)
        return 2

    import loads
    import setup_probe
    from treelap import bounds

    workload = loads.WORKLOADS[args.workload]
    passdir = WORK / f"pass-{args.workload}-{args.seed}-{os.getpid()}"
    passdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, raw_setup = setup_seconds() if args.trace == 0 else ([], [])
        inputs = workload.inputs(args.seed)
        setup_probe.warm_up()
        info = machine_info(args.seed)
        info["module_caches_at_start"] = {
            "bounds._path_code_cache": len(bounds._path_code_cache),
            "bounds._star_code_cache": len(bounds._star_code_cache),
            "state": "warm from the in-process warm-up, then from earlier passes",
        }

        if args.trace:
            passes, metrics, findings = traced_run(workload, inputs, passdir, loads.TOL)
            latencies = kernel_s = []
        else:
            passes, metrics, latencies, kernel_s = timed_run(workload, inputs, passdir, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["raw.setup_s"] = (statistics.median(raw_setup), "s")
            findings = []
    finally:
        shutil.rmtree(passdir, ignore_errors=True)

    attempted = sum(r.trees for r in passes)
    failed = sum(min(r.trees, len(r.failures)) for r in passes)
    failures = [f for r in passes for f in r.failures]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes, "
          f"{attempted} trees attempted, {failed} failed")
    print("machine " + json.dumps(info, sort_keys=True))
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(f"  {'failed_share':40s} {failed / attempted:.6g} (share)")
    if not args.trace:
        try:
            p90 = f"{percentile(latencies, 90):.6g} ms ({len(latencies)} samples)"
        except ValueError as exc:
            p90 = f"not reported: {exc}"
        print(f"  {'tree_ms_p90':40s} {p90}")
    gated = {entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, unit) in sorted(metrics.items()):
        if value or name in gated:
            print(f"  {name:40s} {value:.6g} {unit}")
    for claim, ok, detail in findings:
        print(f"  {'confirmed' if ok else 'MISMATCH'}: {claim} ({detail})")

    key = "per_layer" if args.trace else "end_to_end"
    out = {}
    for entry in spec[key]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "passes": len(passes),
              "attempted": attempted, "failed": failed, "failures": failures[:100],
              "pass_trees": [r.trees for r in passes], "pass_wall_s": [r.wall_s for r in passes],
              "kernel_s": kernel_s,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "findings": [{"claim": c, "confirmed": ok, "detail": d} for c, ok, d in findings]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
