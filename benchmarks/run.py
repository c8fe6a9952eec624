"""supdens benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload mc_table --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the package is imported from its src/).
The workload runs in a fresh worker process; with --trace 0 four more
set-up-only processes are started first, so setup_s is a median of five
set-ups.  Standard output ends with two JSON lines: a full report (every
metric with its unit, op counts, checks, the known-defect probe and the
machine), then the result object with exactly the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from the span trace.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0  # a run must end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    p.add_argument("--ops", type=int, default=None, help="run exactly this many ops (no deadline)")
    return p


def _spawn(args, tmp: Path, out: Path, deadline, setup_only: bool) -> dict:
    cmd = [
        sys.executable, "-B", str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--tmp", str(tmp), "--out", str(out),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    timeout = None if deadline is None else max(deadline - time.monotonic(), 1.0)
    t0 = time.monotonic()
    try:
        # run() kills and reaps the worker if the timeout expires.
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tail(latencies: list) -> dict | None:
    """Highest percentile with at least ten ops beyond it (None below 11 ops)."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(latencies)[rank - 1], "unit": "s", "percentile": 100.0 * rank / n, "ops": n}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except Exception:  # the layout of numpy's build info varies between versions
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
    }


def _latency(op: dict) -> float:
    return op["latency_s"] if op["ok"] else float("inf")


def _end_to_end(ops: list, setups: list, peak_rss_mb: float) -> dict:
    # A run holds each op kind equally often and the kinds differ in cost, so
    # the median of all ops falls in the gap between kinds and is set by two
    # extreme ops.  op_p50_s is the geometric mean over kinds of each kind's
    # median, so every kind counts with equal weight whatever its cost.  (A
    # median over kinds would rest on the middle kind alone: two of the six
    # ops in a fit_eval_large run.)
    kinds = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(_latency(op))
    elapsed = sum(op["latency_s"] for op in ops)
    return {
        "throughput_per_s": {"value": sum(op["work"] for op in ops) / elapsed, "unit": "1/s"},
        "op_p50_s": {"value": statistics.geometric_mean(statistics.median(v) for v in kinds.values()),
                     "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def _by_kind(ops: list) -> dict:
    kinds = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op)
    return {
        kind: {
            "ops": len(group),
            "failed": sum(not op["ok"] for op in group),
            "median_s": statistics.median(op["latency_s"] for op in group),
        }
        for kind, group in kinds.items()
    }


def run(args) -> tuple:
    if not (ROOT / "src" / "supdens" / "__init__.py").is_file():
        raise BenchError(f"no supdens package under {ROOT / 'src'}; run from the root of a full checkout")
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")
    deadline = None if args.ops is not None else time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run_dir))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = _spawn(args, tmp / f"probe{i}", tmp / f"probe{i}.json", deadline, setup_only=True)
                setups.append(probe["setup_s"])
        res = _spawn(args, tmp / "run", tmp / "run.json", deadline, setup_only=False)
        setups.append(res["setup_s"])
        ops = res["ops"]
        if not ops:
            raise BenchError("no op completed")
        failed = sum(not op["ok"] for op in ops)
        metrics = _end_to_end(ops, setups, res["peak_rss_mb"])
        layers = layer_metrics(res["spans"], len(ops)) if args.trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run_dir.rmdir()
        except OSError:  # another run still uses it
            pass

    report_metrics = dict(metrics)
    report_metrics["failed_op_share"] = {"value": failed / len(ops), "unit": "share"}
    tail = _tail([_latency(op) for op in ops])
    if tail is not None:
        report_metrics["op_tail_s"] = tail
    if layers is not None:
        report_metrics.update(layers)
    checked = [op for op in ops if op["checks"] > 0]
    bit = [op["bit_identical"] for op in ops if "bit_identical" in op]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "work_unit": res["work_unit"], "metrics": report_metrics,
        "ops": {"attempted": len(ops), "failed": failed, "total_latency_s": sum(op["latency_s"] for op in ops),
                "by_kind": _by_kind(ops)},
        "checks": {
            "invariant": sum(op["checks"] - op["reference_checks"] for op in ops),
            "reference": sum(op["reference_checks"] for op in ops),
            "bit_identical_to_reference": f"{sum(bit)}/{len(bit)}",
            "failures": [f for op in ops for f in op["failures"]][:10],
        },
        "digests": [op.get("digest") for op in ops],
        "setup_runs_s": setups,
        "env": environment(),
    }
    if "defect_probe" in res:
        report["defect_probe"] = res["defect_probe"]
    if layers is not None:
        report["spans_recorded"] = res["spans_recorded"]
    result = {
        "correct": failed == 0 and len(checked) == len(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": layers if args.trace else metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
