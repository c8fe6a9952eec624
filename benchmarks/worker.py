"""Runs one workload in a fresh process and writes its raw results as JSON.

Started by `run.py`, once per set-up probe and once for the measured run, so
that each process's peak RSS belongs to one workload.  The process is the
only client of supdens and runs one op at a time (a closed loop); it stops
at the first cycle boundary after `--seconds` (or after exactly `--ops`
ops).  Each op is timed alone; its checks run afterwards, untimed and with
tracing paused.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gate import Gate  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def import_supdens():
    """Import supdens from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import supdens
    import supdens.cli  # the package __init__ does not import the CLI

    if Path(supdens.__file__).resolve().parent != (src / "supdens").resolve():
        raise SystemExit(f"supdens imported from {supdens.__file__}, not from {src}")
    return supdens


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead of --seconds")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--tmp", required=True, help="directory for inputs and CLI files")
    p.add_argument("--out", required=True, help="path of the result JSON")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true", help="keep each op's check summary (for reference.json)")
    return p


def _load_reference(size: str, workload: str) -> dict:
    path = BENCH / "reference.json"
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload, {})


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    supdens = import_supdens()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, supdens)
    os.makedirs(args.tmp, exist_ok=True)
    wl = WORKLOADS[args.workload](supdens, args.size, args.seed, args.tmp)
    result = {"setup_s": time.monotonic() - args.t0, "work_unit": wl.work_unit}
    if args.setup_only:
        _write(args.out, result)
        return 0

    refs = _load_reference(args.size, args.workload) if args.seed == DEFAULT_SEED and not args.record else {}
    cycle = len(wl.kinds)
    ops = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        if args.ops is not None:
            if k >= args.ops:
                break
        elif k % cycle == 0 and time.perf_counter() - loop_start >= args.seconds:
            break
        ops.append(_run_op(wl, k, tracer, Gate(), wl.reference(refs, k) if refs else None, args.record))
        k += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = ops
    if hasattr(wl, "run_defect"):
        result["defect_probe"] = _run_defect(wl, tracer)
    if tracer is not None:
        result["spans"] = os.path.join(args.tmp, "spans.npz")
        tracer.save(result["spans"])
        result["spans_recorded"] = len(tracer.start)
    _write(args.out, result)
    return 0


def _run_op(wl, k: int, tracer, gate, ref, record: bool) -> dict:
    op = {"kind": wl.kind(k)}
    t = time.perf_counter()
    try:
        out = wl.run(k)
    except Exception:  # an op that raises counts as failed; keep going
        op["latency_s"] = time.perf_counter() - t
        op.update(ok=False, failures=[traceback.format_exc(limit=3)], checks=0, reference_checks=0, work=0.0)
        return op
    op["latency_s"] = time.perf_counter() - t
    if tracer is not None:
        tracer.paused = True
    try:
        summary = wl.check(gate, k, out, ref)
        op["digest"] = wl.digest(out)
    except Exception:
        gate.require(False, "check raised: " + traceback.format_exc(limit=3))
        summary = None
    finally:
        if tracer is not None:
            tracer.paused = False
    op.update(ok=gate.ok, failures=gate.failures[:5], checks=gate.checks, reference_checks=gate.reference_checks)
    op["work"] = wl.work(out) if gate.ok else 0.0
    if ref is not None and "digest" in ref:
        op["bit_identical"] = op.get("digest") == ref["digest"]
    if record:
        op["summary"] = dict(summary or {}, digest=op.get("digest"))
    return op


def _run_defect(wl, tracer) -> dict:
    """Run the known-defect op once, untimed for the metrics and untraced."""
    if tracer is not None:
        tracer.paused = True
    gate = Gate()
    t = time.perf_counter()
    out = wl.run_defect()
    latency = time.perf_counter() - t
    wl.check(gate, -1, out, None)
    return {"op": wl.defect[0], "latency_s": latency, "ok": gate.ok, "failures": gate.failures[:3]}


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
