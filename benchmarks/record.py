"""Record the gate's reference values and the benchmark's baseline results.

    python3 benchmarks/record.py reference          # writes benchmarks/reference.json
    python3 benchmarks/record.py baseline           # writes benchmarks/results/baseline.json

`reference` runs every workload at the default seed, at full and tiny
size, for a fixed number of ops, and stores what each op's checks compare
against.  `baseline` runs `run.py` on every workload with seeds 1..10
(untraced), reports the median and quartiles of every end-to-end metric
and their spread against the bounds in BENCHMARK.json, then makes one
traced run per workload and measures the tracing overhead as traced minus
untraced op time over the same ops on the same seed.  That difference is
within the run-to-run noise, so it is stored next to an estimate: spans per
op times the measured cost of one wrapper call.  When a baseline file
already exists, each new median is compared with the previous one.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import environment  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUNS = 10

REFERENCE_OPS = {
    "full": {"mc_table": 24, "fit_eval_large": 3, "joint_grid": 2},
    "tiny": {"mc_table": 8, "fit_eval_large": 3, "joint_grid": 2},
}
# Layers whose busy time makes up each workload, for the traced split.
SPLIT = {
    "mc_table": ("simulate.boundary_ise.busy_s", "bandwidth.lscv_bandwidth.busy_s", "solver.solve_support.busy_s"),
    "fit_eval_large": ("bandwidth.lscv_bandwidth.busy_s", "estimators.pdf_terms.busy_s",
                       "estimators.cdf_terms.busy_s", "solver.solve_support.busy_s", "cli.run_cli.self_s"),
    "joint_grid": ("joint.grid.busy_s", "joint.points.busy_s", "joint.fit_joint.busy_s", "cli.run_cli.self_s",
                   "bandwidth.lscv_bandwidth.busy_s"),
}


def record_reference() -> None:
    out = {"default_seed": DEFAULT_SEED, "recorded_at_commit": environment()["commit"]}
    run_dir = ROOT / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run_dir))
    try:
        for size, counts in REFERENCE_OPS.items():
            out[size] = {}
            for name, ops in counts.items():
                res_path = tmp / f"{size}-{name}.json"
                subprocess.run(
                    [sys.executable, "-B", str(BENCH / "worker.py"), "--workload", name,
                     "--seed", str(DEFAULT_SEED), "--seconds", "0", "--ops", str(ops), "--size", size,
                     "--record", "--t0", repr(time.monotonic()), "--tmp", str(tmp / f"{size}-{name}"),
                     "--out", str(res_path)],
                    cwd=ROOT, check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                )
                with open(res_path, "r", encoding="utf-8") as fh:
                    res = json.load(fh)
                bad = [op for op in res["ops"] if not op["ok"]]
                if bad:
                    raise SystemExit(f"{size} {name}: ops failed while recording: {bad[0]['failures']}")
                if name == "mc_table":
                    out[size][name] = {"ops": [op["summary"] for op in res["ops"]]}
                else:
                    out[size][name] = {}
                    for op in res["ops"]:
                        out[size][name].setdefault(op["kind"], op["summary"])
                print(f"recorded {size} {name}: {len(res['ops'])} ops", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def _run(workload: str, seed: int, seconds: float, trace: int, ops: int | None = None) -> tuple:
    cmd = [sys.executable, "-B", str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.monotonic() - t
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result, wall


def span_cost(calls: int = 200_000) -> float:
    """Seconds a traced call costs more than a plain one (kernel-style hook)."""
    from tracing import Tracer, arg_size

    def plain(x):
        return x

    traced = Tracer().wrap("probe", plain, arg_size)
    arg = [0.0] * 4
    times = []
    for fn in (plain, traced, plain, traced):
        t = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        times.append(time.perf_counter() - t)
    return (times[1] + times[3] - times[0] - times[2]) / (2 * calls)


def _quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def record_baseline() -> None:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    previous = {}
    if (BENCH / "results" / "baseline.json").exists():
        with open(BENCH / "results" / "baseline.json", "r", encoding="utf-8") as fh:
            previous = json.load(fh)["workloads"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    cost = span_cost()
    out = {"env": environment(), "run_seconds": seconds, "span_cost_s": cost, "workloads": {}}
    for name in WORKLOADS:
        values = {m: [] for m in bounds}
        walls, reports = [], []
        for seed in range(1, RUNS + 1):
            report, result, wall = _run(name, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {report['checks']['failures']}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            walls.append(wall)
            reports.append(report)
        summary = {}
        for m, vals in values.items():
            q = _quartiles(vals)
            q.update(values=vals, bound=bounds[m], within_third_of_bound=q["spread"] < bounds[m] / 3)
            if name in previous:
                before = previous[name]["end_to_end"][m]["median"]
                worse = (before - q["median"]) / before if better[m] == "higher" else (q["median"] - before) / before
                q.update(previous_median=before, worse_than_previous=worse, within_bound_of_previous=worse <= bounds[m])
            summary[m] = q
            print(f"{name:15s} {m:17s} median {q['median']:.5g}  spread {q['spread']:.4f}  "
                  f"bound {bounds[m]}  {'ok' if q['spread'] < bounds[m] / 3 else 'WIDE'}  "
                  f"worse than previous {q.get('worse_than_previous', float('nan')):+.4f}", file=sys.stderr)
        last = reports[-1]
        entry = {
            "end_to_end": summary,
            "run_wall_s": walls,
            "ops_per_run": [r["ops"]["attempted"] for r in reports],
            "failed_op_share": [r["metrics"]["failed_op_share"]["value"] for r in reports],
            "op_tail_s": [r["metrics"].get("op_tail_s") for r in reports],
            "by_kind_last_run": last["ops"]["by_kind"],
            "defect_probe_last_run": last.get("defect_probe"),
            # Does the median of five set-ups steady setup_s?  Compare it with
            # the measured run's own set-up alone, over the same runs.
            "setup_runs_s": [r["setup_runs_s"] for r in reports],
            "setup_single_spread": _quartiles([r["setup_runs_s"][-1] for r in reports])["spread"],
        }
        traced, traced_result, _ = _run(name, 1, seconds, 1)
        layers = traced_result["metrics"]
        split = {m: layers[m]["value"] for m in SPLIT[name]}
        entry["traced"] = {"per_layer": layers, "split_s_per_op": split, "largest": max(split, key=split.get),
                           "spans_recorded": traced["spans_recorded"]}
        cycle = len(WORKLOADS[name].kinds)
        ops = cycle * (2 if name == "fit_eval_large" else 4)
        # Untraced, traced, traced, untraced: the order cancels a linear drift.
        pairs = [_run(name, 1, seconds, trace, ops=ops)[0] for trace in (0, 1, 1, 0)]
        plain = sum(r["ops"]["total_latency_s"] for r in pairs if not r["trace"]) / 2
        timed = sum(r["ops"]["total_latency_s"] for r in pairs if r["trace"]) / 2
        entry["tracing_overhead"] = {
            "ops": ops,
            "untraced_s": plain,
            "traced_s": timed,
            "overhead_s": timed - plain,
            "overhead_share": (timed - plain) / plain,
            "outputs_bit_identical": all(r["digests"] == pairs[0]["digests"] for r in pairs),
            "estimated_s_per_op": cost * traced["spans_recorded"] / traced["ops"]["attempted"],
        }
        print(f"{name}: largest traced layer {entry['traced']['largest']}; overhead "
              f"{entry['tracing_overhead']['overhead_s']:.3f} s over {ops} ops; bit-identical "
              f"{entry['tracing_overhead']['outputs_bit_identical']}", file=sys.stderr)
        out["workloads"][name] = entry
    (BENCH / "results").mkdir(exist_ok=True)
    with open(BENCH / "results" / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline")
    args = p.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
