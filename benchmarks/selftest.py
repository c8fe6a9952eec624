"""Self-tests of the benchmark itself (kept out of the package's pytest run).

    python3 benchmarks/selftest.py

1. Smoke: every workload at tiny size and the default seed, untraced and
   then traced over the same ops.  The last line must hold exactly the
   contract's four keys, its metrics must be exactly BENCHMARK.json's
   end-to-end (or per-layer) names with their units, every op must pass
   invariant and reference checks, the run must stop at a cycle boundary,
   and traced outputs must be bit-identical to untraced ones.
2. Gate: with `pdf_terms` and `cdf_terms` scaled by 1 + 1e-3 (default seed,
   tiny size), with LSCV returning the next wider grid candidate, and with
   `boundary_ise` scaled by 1.1 (seed 1, full size, no references), the
   affected workloads must fail every op.
3. Layout: in a directory holding only BENCHMARK.json and benchmarks/,
   run.py must exit nonzero without printing a result.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Runs worker.main with one supdens function replaced, at every module
# attribute that holds it, by `wrong(original)`.
PERTURBED_WORKER = """
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, {bench!r})
import numpy as np
import worker
worker.import_supdens()
import supdens.bandwidth
modules = [m for name, m in list(sys.modules.items()) if name == "supdens" or name.startswith("supdens.")]
{wrong}
for fname in {names!r}:
    orig = getattr(sys.modules[{module!r}], fname)
    bad = wrong(orig)
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is orig:
                setattr(m, attr, bad)
sys.exit(worker.main(sys.argv[1:]))
"""

# (what, module, functions, definition of wrong, seed, size, workloads).
# The first runs at the default seed, where reference values apply; the
# others at a seed without references, where only the checks that hold for
# every seed can catch them.
PERTURBATIONS = (
    ("pdf/cdf terms scaled by 1 + 1e-3", "supdens.estimators", ("pdf_terms", "cdf_terms"),
     "def wrong(orig):\n    return lambda *a, **k: orig(*a, **k) * (1.0 + 1e-3)",
     0, "tiny", ("mc_table", "fit_eval_large", "joint_grid")),
    ("LSCV one grid step too wide", "supdens.bandwidth", ("lscv_bandwidth",),
     "def wrong(orig):\n"
     "    def lscv(sample, kernel, grid=None):\n"
     "        cands = supdens.bandwidth.BandwidthGrid.default(sample).candidates\n"
     "        i = int(np.searchsorted(cands, orig(sample, kernel, grid)))\n"
     "        return float(cands[min(i + 1, cands.size - 1)])\n"
     "    return lscv",
     1, "full", ("mc_table", "fit_eval_large")),
    ("boundary ISE scaled by 1.1", "supdens.simulate", ("boundary_ise",),
     "def wrong(orig):\n    return lambda *a, **k: orig(*a, **k) * 1.1",
     1, "full", ("mc_table",)),
)


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory under .bench_run/ (run.py removes that when empty)."""
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_run")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")


def run_bench(workload: str, trace: int, extra: list, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-B", "benchmarks/run.py", "--workload", workload, "--seed", "0",
           "--trace", str(trace), "--size", "tiny"] + extra
    return subprocess.run(cmd, cwd=cwd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def smoke(spec: dict) -> None:
    from workloads import WORKLOADS

    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, wl in WORKLOADS.items():
        digests = {}
        ops = None
        for trace in (0, 1):
            extra = ["--seconds", "0.5"] if ops is None else ["--seconds", "0", "--ops", str(ops)]
            proc = run_bench(name, trace, extra)
            check(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr[-1500:]}")
            report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            check(set(result) == RESULT_KEYS, f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{name} trace {trace}: metrics/units differ from BENCHMARK.json")
            check(all(isinstance(v["value"], float) for v in result["metrics"].values()), f"{name}: non-float metric")
            check(result["correct"] and result["failed"] == 0, f"{name}: {report['checks']['failures']}")
            check(result["attempted"] % len(wl.kinds) == 0, f"{name}: stopped mid-cycle at {result['attempted']} ops")
            checks = report["checks"]
            check(checks["invariant"] > 0 and checks["reference"] > 0, f"{name}: checks did not run: {checks}")
            check("failed_op_share" in report["metrics"], f"{name}: no failed_op_share in the report")
            if name == "fit_eval_large":
                check("defect_probe" in report, f"{name}: the +1e9 probe did not run")
            ops = result["attempted"]
            digests[trace] = report["digests"]
        check(digests[0] == digests[1], f"{name}: traced outputs differ from untraced outputs")
        print(f"ok  smoke {name}: {ops} ops, traced outputs bit-identical")


def perturbed_gate() -> None:
    from workloads import WORKLOADS

    with scratch_dir() as tmp:
        for what, module, names, wrong, seed, size, workloads in PERTURBATIONS:
            code = PERTURBED_WORKER.format(bench=str(BENCH), module=module, names=names, wrong=wrong)
            for name in workloads:
                out = Path(tmp) / f"{name}.json"
                cmd = [sys.executable, "-B", "-c", code, "--workload", name, "--seed", str(seed), "--seconds", "0",
                       "--ops", str(len(WORKLOADS[name].kinds)), "--size", size, "--t0", repr(time.monotonic()),
                       "--tmp", str(Path(tmp) / name), "--out", str(out)]
                proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True)
                check(proc.returncode == 0, f"{what}, {name}: worker exited {proc.returncode}: {proc.stderr[-1500:]}")
                with open(out, "r", encoding="utf-8") as fh:
                    ops = json.load(fh)["ops"]
                caught = [not op["ok"] for op in ops]
                check(all(caught), f"{what}, {name}: gate passed ops {[op['kind'] for op in ops if op['ok']]}")
                print(f"ok  gate {name}, seed {seed}: {what} failed {sum(caught)}/{len(ops)} ops")


def bare_layout() -> None:
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("mc_table", 0, ["--seconds", "1"], cwd=Path(tmp))
        check(proc.returncode != 0, "run.py succeeded without the package")
        check(not proc.stdout.strip(), f"run.py printed a result without the package: {proc.stdout[:200]}")
        print(f"ok  layout: without src/ run.py exits {proc.returncode} and prints nothing")


def main() -> int:
    sys.path.insert(0, str(BENCH))
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    smoke(spec)
    perturbed_gate()
    bare_layout()
    try:
        (ROOT / ".bench_run").rmdir()
    except OSError:  # left in use by another run
        pass
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
