"""coopzf benchmark: four claim-checking workloads, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload verify-sweep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload exact-search --trace 1  # per-layer metrics

Each workload runs in a fresh single-threaded interpreter (``worker.py``),
closed loop, one client.  Every operation's answer is checked.  With
``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; set-up time is the median of several fresh interpreters
that import ``coopzf`` and build the inputs.  Times are calibrated
against a kernel timed alongside them (``calibration.py``); the raw
wall-clock figures are printed too.  With ``--trace 1`` two
fresh interpreters each alternate untraced and traced passes; they report
the per-layer metrics, the tracing overhead, and must agree exactly on
every count.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
MIN_OPS = 100  # so that at least ten latencies lie beyond op_p90_ms
DEADLINE_S = 170  # each workload's invocation stays under three minutes
SEARCHES = ("oracle.m1", "oracle.coop", "oracle.activation", "oracle.lower_bound")
ENGINE = ("zf_engine.sample", "zf_engine.design", "zf_engine.verify", "zf_engine.report")
# Layer groups a workload must never reach; a call there fails the traced run.
FORBIDDEN = {
    "verify-sweep": SEARCHES + ("converse",),
    "exact-search": ENGINE + ("converse",),
    "certify-sweep": SEARCHES + ("zf_engine.verify",),
    "cli-pipe": (),
}
# Layers (or layer groups) predicted to take most of the operation time;
# on cli-pipe the prediction is cli.main together with the layers it drives.
PREDICTED = {
    "verify-sweep": ("zf_engine", "schemes.validate"),
    "exact-search": ("oracle",),
    "certify-sweep": ("converse",),
}
INEXACT = {"zf_engine.max_residual"}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(name: str, results: list[dict]) -> tuple[int, int, dict, bool]:
    """Attempted and failed counts, failures by operation kind, and whether all are known."""
    attempted = sum(r["ops"] for r in results)
    by_kind: dict[str, list] = {}
    for r in results:
        for kind, (count, reason) in r["failures"].items():
            by_kind.setdefault(kind, [0, reason])[0] += count
    failed = sum(c for c, _ in by_kind.values())
    known = KNOWN_FAILURES.get(name, {})
    return attempted, failed, by_kind, all(kind in known for kind in by_kind)


def _failure_lines(name: str, attempted: int, failed: int, by_kind: dict) -> list[str]:
    lines = [f"  {'failed_frac':<20}{failed / attempted:>12.4f} {'':<6}({failed} of {attempted} operations)"]
    known = KNOWN_FAILURES.get(name, {})
    for kind, (count, reason) in sorted(by_kind.items()):
        tag = f"known: {known[kind]}" if kind in known else "UNEXPECTED"
        lines.append(f"    {kind} x{count}: {reason}  [{tag}]")
    for kind in sorted(set(known) - set(by_kind)):
        lines.append(f"    {kind}: now rejected (was a known failure: {known[kind]})")
    return lines


def _setup_seconds(base: list[str], deadline: float) -> tuple[float, float]:
    """Calibrated and raw set-up time of one fresh interpreter."""
    result = _worker([*base, "--setup-only"], deadline)
    return result["setup_s"] * calibration.NOMINAL_NS / result["kernel_ns"], result["setup_s"]


def _end_to_end(name: str, seed: int, seconds: float, spec: dict, deadline: float) -> tuple[dict, list[str]]:
    base = ["--workload", name, "--seed", str(seed)]
    setup = [_setup_seconds(base, deadline) for _ in range(SETUP_SAMPLES)]
    result = _worker([*base, "--seconds", str(seconds), "--min-ops", str(MIN_OPS)], deadline)
    cal, raw = result["calibrated"], result["raw"]
    values = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": cal["p50"],
        "op_p90_ms": cal["p90"],
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": (
            f"{result['ops_per_pass']} ops / median pass time; {result['ops']} ops"
            f" in {result['ops'] // result['ops_per_pass']} passes, {result['wall_s']:.2f} s; raw {raw['ops_per_s']:.4f}"
        ),
        "op_p50_ms": f"n={result['ops']}; raw {raw['p50']:.4g}",
        "op_p90_ms": f"n={result['ops']}, {cal['beyond_p90']} beyond; raw {raw['p90']:.4g}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; raw {statistics.median(r for _, r in setup):.4g}",
        "peak_rss_mb": "worker process",
    }
    attempted, failed, by_kind, all_known = _failures(name, [result])
    lines = [
        f"{name} (seed {seed}, closed loop, 1 client, untraced; times calibrated,"
        f" machine ran at {result['speed']:.3f}x nominal speed)"
    ]
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']:<20}{values[m['name']]:>12.4f} {m['unit']:<6}({notes[m['name']]})")
    kinds = sorted(result["kind_ms"].items(), key=lambda kv: kv[1])
    lines.append("  median ms by kind: " + ", ".join(f"{kind} {ms:.1f}" for kind, ms in kinds))
    lines += _failure_lines(name, attempted, failed, by_kind)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": all_known, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def _exact_view(snapshot: dict) -> dict:
    view = {f"{key}_calls": calls for key, (_, calls) in snapshot["busy"].items()}
    view.update({k: v for k, v in snapshot["counters"].items() if k not in INEXACT})
    return view


def _layer_values(passes: list[dict], plain: tuple[int, float], traced: tuple[int, float]) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the share of operation time of each layer and group.

    Times average over all traced passes; counts come from the first
    traced pass, which every run with the same seed repeats exactly.
    """
    n = len(passes)
    busy_ns: dict[str, int] = {}
    for p in passes:
        for key, (self_ns, _) in p["busy"].items():
            busy_ns[key] = busy_ns.get(key, 0) + self_ns
    op_ns = sum(p["op_ns"] for p in passes)
    first = passes[0]
    counters = first["counters"]

    def ms(key):
        return busy_ns.get(key, 0) / 1e6 / n

    def calls(key):
        return first["busy"].get(key, [0, 0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for key in busy_ns:
        values[f"{key}_ms"] = ms(key)
        values[f"{key}_calls"] = calls(key)
    for layer in LAYERS:
        layer_ns = sum(v for k, v in busy_ns.items() if k.split(".")[0] == layer)
        values[f"{layer}.busy_share"] = ratio(layer_ns, op_ns)
    values["bench.busy_share"] = ratio(op_ns - sum(busy_ns.values()), op_ns)
    values.update(counters)
    values["zf_engine.max_residual"] = max(p["counters"].get("zf_engine.max_residual", 0.0) for p in passes)
    values["zf_engine.verify_us_per_user"] = ratio(ms("zf_engine.verify") * 1e3, counters.get("zf_engine.users_verified", 0))
    search_ms = sum(ms(k) for k in ("oracle.m1", "oracle.coop", "oracle.activation"))
    nodes = sum(counters.get(k, 0) for k in ("oracle.m1_nodes", "oracle.coop_nodes", "oracle.activation_nodes"))
    values["oracle.us_per_node"] = ratio(search_ms * 1e3, nodes)
    values["oracle.lower_bound_certified_frac"] = ratio(
        counters.get("oracle.lower_bound_certified", 0), calls("oracle.lower_bound")
    )
    values["converse.tight_frac"] = ratio(counters.get("converse.backhaul_tight", 0), calls("converse.backhaul"))
    values["trace.ops_ratio"] = ratio(traced[0] / traced[1], plain[0] / plain[1])
    values["trace.spans"] = sum(v for k, v in values.items() if k.endswith("_calls"))
    values["top_outside_cli"] = first["top_outside_cli"]
    values["top_share"] = ratio(sum(p["top_ns"] for p in passes), op_ns)
    shares = {key: ratio(v, op_ns) for key, v in busy_ns.items()}
    shares.update({layer: values[f"{layer}.busy_share"] for layer in LAYERS})
    return values, shares


def _per_layer(name: str, seed: int, seconds: float, spec: dict, deadline: float) -> tuple[dict, list[str], bool]:
    results = []
    for k in range(2):
        spans = ROOT / ".bench_out" / f"spans-{name}-{k}.jsonl"
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds / 2), "--mode", "alternate"]
        results.append(_worker([*args, "--spans", str(spans)], deadline))
    passes = [p for r in results for p in r["passes"]]
    plain = (sum(r["plain_ops"] for r in results), sum(r["plain_s"] for r in results))
    traced = (sum(r["traced_ops"] for r in results), sum(r["traced_s"] for r in results))
    values, shares = _layer_values(passes, plain, traced)

    problems = []
    other = {p["index"]: _exact_view(p) for p in results[1]["passes"]}
    for p in results[0]["passes"]:
        if p["index"] in other:
            view, twin = _exact_view(p), other[p["index"]]
            diff = sorted(k for k in set(view) | set(twin) if view.get(k, 0) != twin.get(k, 0))
            if diff:
                problems.append(f"pass {p['index']} counts differ between two runs with seed {seed}: {diff}")
    for key in FORBIDDEN[name]:
        reached = sum(v for k, v in values.items() if k.endswith("_calls") and (k.startswith(key + ".") or k == f"{key}_calls"))
        if reached:
            problems.append(f"{name} must not call {key}, but made {reached} calls per pass")
    if name == "cli-pipe" and values["top_outside_cli"]:
        problems.append("cli-pipe called the library outside cli.main")

    attempted, failed, by_kind, all_known = _failures(name, results)
    lines = [f"{name} (seed {seed}, traced passes {len(passes)}, per traced pass)"]
    idle = []
    for m in spec["per_layer"]:
        if values.get(m["name"]):
            lines.append(f"  {m['name']:<40}{values[m['name']]:>14.6g} {m['unit']}")
        else:
            idle.append(m["name"])
    if name == "cli-pipe":
        covered = values["top_share"]
        verdict = "confirmed" if covered > 0.5 else "NOT confirmed"
        lines.append(f"  predicted dominant cli.main with the layers it drives: share {covered:.3f} -> {verdict}")
    else:
        predicted = sum(shares.get(key, 0.0) for key in PREDICTED[name])
        others = {layer: shares[layer] for layer in LAYERS if layer not in PREDICTED[name]}
        for key in PREDICTED[name]:
            if "." in key:  # a predicted group: its layer's other groups are rivals
                others[key.split(".")[0]] -= shares.get(key, 0.0)
        rival = max(others, key=others.get)
        verdict = "confirmed" if predicted > others[rival] else f"NOT confirmed: {rival} is busier"
        lines.append(
            f"  predicted dominant {'+'.join(PREDICTED[name])}: share {predicted:.3f}"
            f" vs {rival} {others[rival]:.3f} -> {verdict}"
        )
    lines += _failure_lines(name, attempted, failed, by_kind)
    for problem in problems:
        lines.append(f"  CHECK FAILED: {problem}")
    if idle:
        lines.append(f"  zero on this workload: {', '.join(idle)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    result = {"correct": all_known and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, bool(problems)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results, loud = {}, False
    try:
        for name in names:
            if args.trace:
                result, lines, mismatch = _per_layer(name, args.seed, args.seconds, spec, deadline)
                loud |= mismatch
            else:
                result, lines = _end_to_end(name, args.seed, args.seconds, spec, deadline)
            results[name] = result
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    if loud:
        print("benchmark check failed: see CHECK FAILED above", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
