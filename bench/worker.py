"""One workload in a fresh, single-threaded interpreter.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports ``coopzf`` from ``src/`` of the checkout it sits in, builds the
workload from the seed, warms up, and then runs whole passes in a closed
loop with one client.  Between operations it samples the calibration
kernel (see ``calibration.py``).  It prints one JSON object as its last
line.

Modes:

* ``--setup-only``: import and build the inputs, then report the time
  that took and the calibration kernel's time right after it.
* ``--mode plain``: untraced passes until ``--seconds`` have elapsed and
  at least ``--min-ops`` operations ran.
* ``--mode alternate``: untraced and traced passes alternate, at least one
  of each, so one process yields both the tracing overhead and the
  per-layer aggregates of its traced passes; spans go to ``--spans``.
"""

from __future__ import annotations

import time

START_NS = time.perf_counter_ns()  # set-up is timed from here

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path

import calibration
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import coopzf
        import coopzf.cli  # noqa: F401  (cli is a layer; the package does not import it)
    except ImportError as exc:
        sys.exit(f"cannot import coopzf from {SRC}: {exc}")
    if Path(coopzf.__file__).resolve().parent != SRC / "coopzf":
        sys.exit(f"coopzf was imported from {coopzf.__file__}, not from {SRC}")
    return coopzf


def _run_op(op, failures: dict) -> tuple[int, int]:
    """Run one operation; returns its start and end in ns and records a failure."""
    start = time.perf_counter_ns()
    try:
        op.run()
    except workloads.CheckFailed as exc:
        failures.setdefault(op.kind, [0, str(exc)])[0] += 1
    except Exception as exc:  # a crash is a failed operation, and the loop goes on
        failures.setdefault(op.kind, [0, f"{type(exc).__name__}: {exc}"])[0] += 1
    return start, time.perf_counter_ns()


def _quantiles(ms: list[float]) -> dict:
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {"p50": statistics.median(ms), "p90": p90, "beyond_p90": sum(1 for x in ms if x > p90)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "alternate"), default="plain")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = _import_package()
    tracer = tracing.Tracer(lib)
    ops = workloads.build(args.workload, lib, args.seed, 0, tracer)
    if args.setup_only:
        setup_ns = time.perf_counter_ns() - START_NS
        kernel_ns = statistics.median(calibration.kernel_ns() for _ in range(5))
        print(json.dumps({"setup_s": setup_ns / 1e9, "kernel_ns": kernel_ns}))
        return 0

    failures: dict[str, list] = {}
    for op in workloads.warmup(ops):
        _run_op(op, {})
    gc.collect()

    # Pass k is traced when k is odd, so both traced processes trace the same passes.
    calib = calibration.Calibration()
    timings: list[tuple[str, int, int, bool]] = []  # (kind, start_ns, end_ns, traced)
    passes: list[dict] = []
    kinds: list[list[str]] = []
    begin = time.perf_counter()
    for index in itertools.count():
        if index:
            ops = workloads.build(args.workload, lib, args.seed, index, tracer)
        kinds.append([op.kind for op in ops])
        traced = args.mode == "alternate" and index % 2 == 1
        tracer.reset_pass()
        if traced:
            tracer.install()
        for op in ops:
            calib.sample_if_due()  # pure Python: the tracer records nothing for it
            tracer.op_id += 1
            timings.append((op.kind, *_run_op(op, failures), traced))
        tracer.uninstall()
        if traced:
            op_ns = sum(end - start for _, start, end, _ in timings[-len(ops):])
            passes.append({**tracer.snapshot(), "index": index, "op_ns": op_ns})
        done = time.perf_counter() - begin >= args.seconds and len(timings) >= args.min_ops
        if done and (args.mode == "plain" or passes):
            break
    calib.sample()
    wall = time.perf_counter() - begin

    n = len(ops)
    raw_ms = [(end - start) / 1e6 for _, start, end, _ in timings]
    cal_ms = [(end - start) * calib.scale(start, end) / 1e6 for _, start, end, _ in timings]
    pass_ms = {"plain": [], "traced": []}
    for first in range(0, len(timings), n):
        pass_ms["traced" if timings[first][3] else "plain"].append(sum(cal_ms[first : first + n]))
    result = {
        "ops": len(timings),
        "ops_per_pass": n,
        "failures": failures,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed": statistics.median(calibration.NOMINAL_NS / c for c in calib.costs),
    }
    if args.mode == "plain":
        by_kind: dict[str, list[float]] = {}
        for (kind, *_), ms in zip(timings, cal_ms):
            by_kind.setdefault(kind, []).append(ms)
        raw_pass = [sum(raw_ms[first : first + n]) for first in range(0, len(timings), n)]
        result.update(
            ops_per_s=n / (statistics.median(pass_ms["plain"]) / 1e3),
            calibrated=_quantiles(cal_ms),
            raw={**_quantiles(raw_ms), "ops_per_s": n / (statistics.median(raw_pass) / 1e3)},
            kind_ms={kind: statistics.median(v) for kind, v in by_kind.items()},
        )
    else:
        result.update(
            plain_ops=n * len(pass_ms["plain"]),
            plain_s=sum(pass_ms["plain"]) / 1e3,
            traced_ops=n * len(pass_ms["traced"]),
            traced_s=sum(pass_ms["traced"]) / 1e3,
            passes=passes,
        )
        if args.spans is not None:
            # A span's "op" is a running operation id: pass op // n, position op % n.
            header = {"workload": args.workload, "seed": args.seed, "ops_per_pass": n, "op_kinds": kinds}
            tracer.write(args.spans, header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
