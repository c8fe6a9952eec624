"""Layer scaling sweep: each layer's public function timed over n.

    python3 benchmarks/sweep.py            # print the table
    python3 benchmarks/sweep.py --write    # also write benchmarks/results/sweep.json

Not a gated workload.  Every (function, size) case runs in its own fresh
process, so its peak RSS is its own; the time is the median of a few
repeats.  `computed_bytes` is 8 bytes times the float64 entries of the
dense matrices the current implementation materialises once per call (the
m x n term matrix, or n^2 per LSCV candidate); it is computed, not measured.
Sizes are capped so that no case holds a term matrix above 400 MB, which
kept the peak of the largest case (reflection cdf_terms at n = 10^4) at 1.6 GB
on a 2-vCPU x86_64 VM.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EVAL_POINTS = 4001
MAX_MATRIX_BYTES = 400e6

CASES = (
    [("lscv", "epanechnikov", n) for n in (100, 1000, 3000)]
    + [("lscv", "gaussian", n) for n in (100, 1000)]
    + [(fn, method, n) for fn in ("pdf_terms", "cdf_terms")
       for method in ("naive", "reflection", "boundary_kernel") for n in (100, 1000, 10000)]
    + [("solve_support", method, n) for method in ("reflection", "boundary_kernel") for n in (100, 1000, 10000)]
    + [("boundary_ise", "boundary_kernel", n) for n in (100, 300, 1000)]
    + [("joint_grid", "reflection", n) for n in (100, 1000, 2000)]
)


def _case(fn: str, variant: str, n: int) -> dict:
    """Run one case in this process and return its measurements."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from supdens import bandwidth, estimators, joint, kernels, simulate, solver

    rng = np.random.default_rng(12345)
    sample = estimators.Sample(rng.beta(3.0, 1.0, n))
    epan = kernels.EPANECHNIKOV
    h = 0.1 * n ** -0.2
    xs = np.linspace(-0.1, 1.1, EVAL_POINTS)
    if fn == "lscv":
        kernel = kernels.get_kernel(variant)
        call = lambda: bandwidth.lscv_bandwidth(sample, kernel)  # noqa: E731
        computed = 8.0 * n * n * bandwidth.BandwidthGrid.default(sample).candidates.size
    elif fn in ("pdf_terms", "cdf_terms"):
        est, _ = solver.fit(sample, h, epan, variant, None if variant == "naive" else solver.SupportMode.proposed())
        terms = getattr(estimators, fn)
        call = lambda: terms(est, xs)  # noqa: E731
        computed = 8.0 * EVAL_POINTS * n
    elif fn == "solve_support":
        call = lambda: solver.solve_support(sample, h, epan, variant, solver.SupportMode.proposed())  # noqa: E731
        computed = None
    elif fn == "boundary_ise":
        est, _ = solver.fit(sample, h, epan, variant, solver.SupportMode.proposed())
        truth = lambda t: simulate.beta_pdf(3.0, 1.0, t)  # noqa: E731
        call = lambda: simulate.boundary_ise(est, truth, 1.0, h)  # noqa: E731
        computed = 8.0 * 4001 * n
    elif fn == "joint_grid":
        data = joint.MultiSample(np.column_stack([rng.beta(3.0, 1.0, n), rng.beta(2.0, 2.0, n)]))
        est = joint.fit_joint(data, [h, h], epan, variant, solver.SupportMode.proposed())
        axis = np.linspace(-0.05, 1.05, 201)
        call = lambda: (est.pdf_grid([axis, axis]), est.cdf_grid([axis, axis]))  # noqa: E731
        computed = 2 * 8.0 * 201 * 201 * n
    else:
        raise ValueError(fn)
    times = []
    budget = time.perf_counter() + 5.0
    while len(times) < 5 and (len(times) < 1 or time.perf_counter() < budget):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return {
        "time_s": statistics.median(times), "repeats": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "computed_bytes": computed,
    }


def _slope(rows: list, fn: str, variant: str) -> float | None:
    pts = [(r["n"], r["time_s"]) for r in rows if r["fn"] == fn and r["variant"] == variant]
    if len(pts) < 2:
        return None
    (n0, t0), (n1, t1) = pts[-2], pts[-1]
    return math.log(t1 / t0) / math.log(n1 / n0)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--write", action="store_true")
    p.add_argument("--case", help=argparse.SUPPRESS)  # child mode: fn,variant,n
    args = p.parse_args()
    if args.case:
        fn, variant, n = args.case.split(",")
        print(json.dumps(_case(fn, variant, int(n))))
        return 0
    rows = []
    for fn, variant, n in CASES:
        if fn in ("pdf_terms", "cdf_terms") and 8.0 * EVAL_POINTS * n > MAX_MATRIX_BYTES:
            continue
        proc = subprocess.run(
            [sys.executable, "-B", __file__, "--case", f"{fn},{variant},{n}"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
        row = dict(fn=fn, variant=variant, n=n, **json.loads(proc.stdout))
        rows.append(row)
        print(f"{fn:14s} {variant:16s} n={n:6d}  {row['time_s']:9.4f} s  peak {row['peak_rss_mb']:7.1f} MB",
              file=sys.stderr)
    slopes = {f"{fn}/{variant}": _slope(rows, fn, variant) for fn, variant, _ in CASES}
    lscv_1000 = next(r["time_s"] for r in rows if r["fn"] == "lscv" and r["variant"] == "epanechnikov" and r["n"] == 1000)
    summary = {
        "lscv_epanechnikov_n1000_s": lscv_1000,
        "lscv_epanechnikov_loglog_slope_1000_3000": slopes["lscv/epanechnikov"],
        "loglog_slopes_last_two_sizes": slopes,
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)
    if args.write:
        from run import environment

        env = environment()
        (BENCH / "results").mkdir(exist_ok=True)
        with open(BENCH / "results" / "sweep.json", "w", encoding="utf-8") as fh:
            json.dump({"env": env, "summary": summary, "cases": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
