"""ccmatrix benchmark runner.

    python3 bench/run.py --workload store|compute|sweep|all --seed N [--trace 0|1]

Run from the repository root. It imports ccmatrix from ``src/`` next to
this directory, makes every input from ``--seed``, measures passes of the
workload for about ``run_seconds`` of BENCHMARK.json and checks every
result against the oracle in ``oracle.py``. Run length is fixed there, so
every run of every commit measures as long: ``--seconds`` is accepted only
with that same value. It prints one line per metric, then, as the
last line, one JSON object: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, or its per-layer metrics from a traced run with
``--trace 1``. The full report, with run metadata and the stage metrics,
is written to ``bench/out/``; a traced run also writes its spans there.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import os

# One client, one process, no helper threads: pin BLAS/OpenMP pools
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 21
WORKLOAD_NAMES = ("store", "compute", "sweep")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def machine_info(seed: int) -> dict:
    import numpy as np

    def first_line(path: str, prefix: str = "") -> str | None:
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return None
        return None

    return {
        "seed": seed,
        "cpu_model": first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def measure(wl, state, tally, seconds: float, meter, min_passes: int) -> list[dict]:
    """Run passes until about ``seconds`` have gone, and at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(state, tally, meter))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + took / 2 > seconds:
            return passes
        if elapsed > 4 * seconds:  # a much slower program still ends in time
            return passes


def run_untraced(wl, seed: int, seconds: float, tally, workdir: Path) -> tuple[dict, dict]:
    setup_meter = wl.setup_meter()
    setups = []
    for _ in range(SETUP_REPEATS):
        state, exc, took = setup_meter.call(wl.setup, seed, workdir)
        if exc is not None:
            raise exc
        setups.append(took)
    wl.expect(state)
    meter = wl.meter()
    passes = measure(wl, state, tally, seconds, meter, min_passes=2)
    metrics = {
        "pass_s": statistics.median(wl.pass_seconds(p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes), "setup_runs_s": setups,
              "pass_runs_s": [wl.pass_seconds(p) for p in passes],
              "pass_wall_mean_s": meter.wall_s / len(passes), "stages": wl.summarize(passes)}
    return metrics, detail


def run_traced(wl, seed: int, seconds: float, tally, workdir: Path) -> tuple[dict, dict]:
    import spans

    state = wl.setup(seed, workdir)
    wl.expect(state)
    untraced_s = wl.pass_seconds(wl.run_pass(state, tally, wl.meter()))
    rec = spans.Recorder()
    rec.install()
    try:
        state = wl.setup(seed, workdir)
        with rec.paused():
            wl.expect(state)
        after_setup = rec.snapshot()
        passes = measure(wl, state, tally, seconds, wl.meter(rec.paused), min_passes=1)
        totals = rec.per_pass(after_setup, len(passes))
    finally:
        rec.uninstall()
    traced_s = statistics.median(wl.pass_seconds(p) for p in passes)
    metrics = spans.layer_metrics(rec, totals)
    metrics.update(wl.invariants(state))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    span_file = OUT / f"spans-{wl.name}.npz"
    detail = {"passes": len(passes), "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "spans": rec.save(span_file), "span_file": str(span_file.relative_to(ROOT)),
              "stages": wl.summarize(passes)}
    return metrics, detail


def run_one(args, config: dict) -> int:
    import workloads

    seconds = config["run_seconds"]
    wl = workloads.WORKLOADS[args.workload]()
    meta = machine_info(args.seed)
    tally = workloads.Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{wl.name}-") as tmp:
        run = run_traced if args.trace else run_untraced
        values, detail = run(wl, args.seed, seconds, tally, Path(tmp))

    wanted = config["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_share = tally.failed / tally.attempted

    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} passes={detail['passes']}")
    for name, (value, unit) in detail["stages"].items():
        print(f"{name:40s} {value:16.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:16.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed_share:16.6g} ratio ({tally.failed}/{tally.attempted})")
    for line in tally.details:
        print(f"# FAILED {line}")

    report = {"workload": wl.name, "trace": args.trace, "seconds": seconds, "meta": meta,
              "attempted": tally.attempted, "failed": tally.failed, "failed_share": failed_share,
              "failures": tally.details, "metrics": metrics,
              **{k: v for k, v in detail.items() if k != "stages"},
              "stages": {k: {"value": v, "unit": u} for k, (v, u) in detail["stages"].items()}}
    report.update(tally.notes)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    codes = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        codes.append(subprocess.run(argv, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    config_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ccmatrix" / "__init__.py").is_file() or not config_path.is_file():
        print(f"error: run from a ccmatrix checkout; {SRC / 'ccmatrix'} or {config_path} is missing",
              file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    if args.seconds is not None and args.seconds != config["run_seconds"]:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {config['run_seconds']} "
              f"of {config_path.name}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, config)


if __name__ == "__main__":
    sys.exit(main())
