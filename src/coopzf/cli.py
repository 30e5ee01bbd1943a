"""Command-line front end for reproducible experiments.

Subcommands compose through JSON on stdin/stdout::

    coopzf scheme --wyner --K 8 --B 2 | coopzf verify --seed 7
    coopzf scheme --hex-coop --n 6 | coopzf report
    coopzf table1
    echo '{"K": 8, "transmit_sets": [...]}' | coopzf certify --backhaul --B 1

Exit codes: 0 success; 1 failed verification, unsound certificate, or
table mismatch; 2 usage, invalid parameters, or a malformed stdin
document; 3 resource guard trip.
The default random seed is 0, overridable by ``--seed`` or the
``COOPZF_SEED`` environment variable (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .assignment import assignment_from_json
from .converse import (
    algorithm1_certify,
    backhaul_converse,
    triangle_state_bound,
    validate_certificate,
)
from .errors import (
    DecompositionFailureError,
    InvalidParameterError,
    PreconditionViolationError,
    ResourceLimitError,
    SolverFailureError,
    UnsupportedError,
    _document_errors,
)
from .oracle import (
    AvoidanceSchedule,
    certify_lower_bound,
    max_activation_for_assignment,
    max_avoidance_cooperative,
    max_avoidance_m1,
)
from .schemes import (
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    locally_connected_scheme,
    scheme_from_json,
    scheme_to_json,
    table1_row,
    table1_scheme,
    two_dim_scheme,
    wyner_backhaul_scheme,
)
from .topology import (
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    interior_nodes,
)
from .zf_engine import design_beams, dof_report, sample_channels, verify

SEED_ENV_VAR = "COOPZF_SEED"

_EXPECTED_TABLE1 = {
    2: Fraction(2, 3),
    3: Fraction(3, 5),
    4: Fraction(5, 9),
    5: Fraction(11, 21),
    6: Fraction(1, 2),
}


@dataclass
class ExperimentConfig:
    """Parsed experiment parameters ready for :func:`run`."""

    command: str
    kind: str | None = None
    mode: str | None = None
    K: int | None = None
    L: int | None = None
    M: int | None = None
    B: Fraction | None = None
    n: int | None = None
    seed: int = 0
    tol: float = 1e-8
    fmt: str = "json"
    node_limit: int | None = None
    time_limit: float | None = None


def _require(value, flag: str):
    if value is None:
        raise InvalidParameterError(f"missing required flag {flag}")
    return value


def _build_topology(config: ExperimentConfig):
    """Topology (and lattice when hexagonal) from the selection flags."""
    kind = _require(config.kind, "--wyner/--lc/--two-dim/--hex")
    if kind == "wyner":
        return build_wyner(_require(config.K, "--K")), None
    if kind == "lc":
        return (
            build_locally_connected(_require(config.K, "--K"), _require(config.L, "--L")),
            None,
        )
    if kind == "two_dim":
        return build_two_dim(_require(config.K, "--K")), None
    if kind == "hex":
        topology, lattice = build_hexagonal(_require(config.n, "--n"))
        return topology, lattice
    raise InvalidParameterError(f"unknown topology kind {kind!r}")


def _as_int(value: Fraction, flag: str) -> int:
    if value.denominator != 1:
        raise InvalidParameterError(f"{flag} must be an integer here")
    return int(value)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _run_topology(config: ExperimentConfig) -> int:
    topology, _ = _build_topology(config)
    _emit(topology.to_json())
    return 0


def _run_scheme(config: ExperimentConfig) -> int:
    kind = _require(config.kind, "--wyner/--lc/--table1/--two-dim/--hex-coset/--hex-coop")
    if kind == "wyner":
        K = _require(config.K, "--K")
        B = _as_int(_require(config.B, "--B"), "--B")
        assignment, scheme = wyner_backhaul_scheme(K, B)
        topology = build_wyner(K)
    elif kind == "lc":
        K = _require(config.K, "--K")
        L = _require(config.L, "--L")
        M = _require(config.M, "--M")
        assignment, scheme = locally_connected_scheme(K, L, M)
        topology = build_locally_connected(K, L)
    elif kind == "table1":
        K = _require(config.K, "--K")
        L = _require(config.L, "--L")
        assignment, scheme = table1_scheme(K, L)
        topology = build_locally_connected(K, L)
    elif kind == "two_dim":
        K = _require(config.K, "--K")
        assignment, scheme = two_dim_scheme(K)
        topology = build_two_dim(K)
    elif kind == "hex_coset":
        topology, lattice = build_hexagonal(_require(config.n, "--n"))
        assignment, scheme = hexagonal_coset_scheme(lattice)
    elif kind == "hex_coop":
        topology, lattice = build_hexagonal(_require(config.n, "--n"))
        assignment, scheme = hexagonal_cooperative_scheme(lattice)
    else:
        raise InvalidParameterError(f"unknown scheme kind {kind!r}")
    _emit(scheme_to_json(scheme, topology=topology, assignment=assignment))
    return 0


def _run_verify(config: ExperimentConfig) -> int:
    scheme, topology, assignment = scheme_from_json(sys.stdin.read())
    if topology is None or assignment is None:
        raise InvalidParameterError(
            "verify needs a scheme document with embedded topology and transmit_sets"
        )
    channels = sample_channels(topology, config.seed)
    beams = design_beams(topology, channels, assignment, scheme)
    report = verify(topology, channels, scheme, beams, tol=config.tol)
    obj = json.loads(report.to_json())
    obj["active"] = report.dof
    obj["dof"] = str(Fraction(report.dof, scheme.K))
    obj["seed"] = config.seed
    _emit(json.dumps(obj))
    return 0 if report.passed else 1


def _run_report(config: ExperimentConfig) -> int:
    scheme, _, assignment = scheme_from_json(sys.stdin.read())
    if assignment is None:
        raise InvalidParameterError("report needs a scheme document with transmit_sets")
    _emit(dof_report(scheme, assignment).to_json())
    return 0


def _search_limits(config: ExperimentConfig) -> dict:
    """The exact-search guards the caller set; unset ones keep the oracle defaults."""
    limits = {"node_limit": config.node_limit, "time_limit": config.time_limit}
    return {key: value for key, value in limits.items() if value is not None}


def _run_oracle(config: ExperimentConfig) -> int:
    mode = _require(config.mode, "--m1/--coop/--max-activation")
    topology, lattice = _build_topology(config)
    if mode == "m1":
        value, schedule = max_avoidance_m1(topology, **_search_limits(config))
        out = {
            "value": value,
            "pairs": [list(p) for p in sorted(schedule.pairs)],
            "nodes_explored": schedule.nodes_explored,
        }
        if lattice is not None:
            interior = interior_nodes(lattice)
            boundary = frozenset(topology.hears) - interior
            served = {r for r, _ in schedule.pairs}
            for name, region in (("interior", interior), ("boundary", boundary)):
                hit = len(served & region)
                out[name] = {
                    "size": len(region),
                    "served": hit,
                    "ratio": str(Fraction(hit, len(region))) if region else None,
                }
        _emit(json.dumps(out))
        return 0
    if mode == "coop":
        B = _require(config.B, "--B")
        value, witness = max_avoidance_cooperative(topology, B, **_search_limits(config))
        out = {
            "value": value,
            "active": sorted(witness.active),
            "assignment": json.loads(witness.assignment.to_json()),
            "nodes_explored": witness.nodes_explored,
        }
        _emit(json.dumps(out))
        return 0
    if mode == "max_activation":
        assignment = assignment_from_json(sys.stdin.read())
        value, witness = max_activation_for_assignment(
            topology, assignment, **_search_limits(config)
        )
        out = {
            "value": value,
            "active": sorted(witness.active),
            "nodes_explored": witness.nodes_explored,
        }
        _emit(json.dumps(out))
        return 0
    raise InvalidParameterError(f"unknown oracle mode {mode!r}")


def _run_certify(config: ExperimentConfig) -> int:
    mode = _require(config.mode, "--backhaul/--groups/--states/--lower-bound")
    if mode == "backhaul":
        assignment = assignment_from_json(sys.stdin.read())
        B = _as_int(_require(config.B, "--B"), "--B")
        result = backhaul_converse(assignment, B)
        _emit(json.dumps(result.to_json()))
        return 0
    if mode == "groups":
        assignment = assignment_from_json(sys.stdin.read())
        _, lattice = build_hexagonal(_require(config.n, "--n"))
        certificate = algorithm1_certify(lattice, assignment)
        problems = validate_certificate(lattice, assignment, certificate)
        obj = certificate.to_json()
        obj["problems"] = problems
        _emit(json.dumps(obj))
        return 0 if not problems else 1
    if mode == "states":
        with _document_errors("schedule"):
            pairs = frozenset((int(r), int(t)) for r, t in json.loads(sys.stdin.read())["pairs"])
        schedule = AvoidanceSchedule(pairs=pairs, value=len(pairs))
        _, lattice = build_hexagonal(_require(config.n, "--n"))
        certificate = triangle_state_bound(lattice, schedule)
        _emit(json.dumps(certificate.to_json()))
        return 0
    if mode == "lower_bound":
        scheme, topology, assignment = scheme_from_json(sys.stdin.read())
        if topology is None or assignment is None:
            raise InvalidParameterError(
                "lower-bound check needs embedded topology and transmit_sets"
            )
        ok = certify_lower_bound(topology, scheme, assignment, **_search_limits(config))
        _emit(
            json.dumps(
                {"certified": bool(ok), "active": len(scheme.active_messages), "K": scheme.K}
            )
        )
        return 0 if ok else 1
    raise InvalidParameterError(f"unknown certify mode {mode!r}")


def _row_document(row: dict) -> dict:
    return {
        "L": row["L"],
        "pudof": str(row["pudof"]),
        "backhaul": str(row["backhaul"]),
        "ratio": f"{row['ratio'][0]}:{row['ratio'][1]}",
        "blocks_m2": row["blocks_m2"],
        "blocks_m3": row["blocks_m3"],
        "block_m2": row["block_m2"],
        "block_m3": row["block_m3"],
        "K_min": row["K_min"],
    }


def report_table1() -> dict:
    """Regenerate the five chain-mixture rows and re-check them exactly.

    Each row is rebuilt from its block generators at the minimal tiling
    length; declared per-user DoF and backhaul must match the row's
    exact fractions, and the backhaul must not exceed 1.

    Returns:
        ``{"rows": [...], "problems": [...]}`` — empty problems means
        every row reproduces exactly.
    """
    rows = []
    problems: list[str] = []
    for L in sorted(_EXPECTED_TABLE1):
        row = table1_row(L)
        if row["pudof"] != _EXPECTED_TABLE1[L]:
            problems.append(f"L={L}: per-user DoF {row['pudof']} != {_EXPECTED_TABLE1[L]}")
        if row["backhaul"] > 1:
            problems.append(f"L={L}: backhaul {row['backhaul']} exceeds 1")
        assignment, scheme = table1_scheme(row["K_min"], L)
        rep = dof_report(scheme, assignment)
        if rep.per_user_dof != row["pudof"]:
            problems.append(f"L={L}: generated scheme achieves {rep.per_user_dof}")
        if rep.backhaul != row["backhaul"]:
            problems.append(f"L={L}: generated scheme loads {rep.backhaul}")
        if scheme.declared_pudof != row["pudof"] or scheme.declared_backhaul != row["backhaul"]:
            problems.append(f"L={L}: declared fractions disagree with the row")
        rows.append(_row_document(row))
    return {"rows": rows, "problems": problems}


def _format_rows(rows: list[dict], fmt: str) -> str:
    columns = ["L", "pudof", "backhaul", "ratio", "K_min"]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(r[c]) for c in columns) for r in rows]
        return "\n".join(lines)
    if fmt == "text":
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        body = [
            "  ".join(str(r[c]).ljust(widths[c]) for c in columns) for r in rows
        ]
        return "\n".join([header] + body)
    return json.dumps({"rows": rows})


def _run_table1(config: ExperimentConfig) -> int:
    if config.L is not None:
        row = _row_document(table1_row(config.L))
        if config.fmt == "json":
            _emit(json.dumps(row))
        else:
            _emit(_format_rows([row], config.fmt))
        return 0
    document = report_table1()
    if config.fmt == "json":
        _emit(json.dumps(document))
    else:
        _emit(_format_rows(document["rows"], config.fmt))
        for p in document["problems"]:
            print(f"mismatch: {p}", file=sys.stderr)
    return 0 if not document["problems"] else 1


_COMMANDS = {
    "topology": _run_topology,
    "scheme": _run_scheme,
    "verify": _run_verify,
    "report": _run_report,
    "oracle": _run_oracle,
    "certify": _run_certify,
    "table1": _run_table1,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    body = _COMMANDS.get(config.command)
    if body is None:
        raise InvalidParameterError(f"unknown command {config.command!r}")
    return body(config)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--K", type=int, default=None, help="number of users")
    sub.add_argument("--L", type=int, default=None, help="chain connectivity parameter")
    sub.add_argument("--M", type=int, default=None, help="cooperation order")
    sub.add_argument("--B", type=Fraction, default=None, help='backhaul budget, e.g. "1" or "3/2"')
    sub.add_argument("--n", type=int, default=None, help="hexagonal lattice side length")
    sub.add_argument("--seed", type=int, default=None, help="random seed (else $COOPZF_SEED, else 0)")
    sub.add_argument("--tol", type=float, default=1e-8, help="relative interference tolerance")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--node-limit", type=int, default=None, help="exact-search size guard")
    sub.add_argument("--time-limit", type=float, default=None, help="exact-search seconds guard")


def _add_topology_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--wyner", dest="kind", action="store_const", const="wyner")
    group.add_argument("--lc", dest="kind", action="store_const", const="lc")
    group.add_argument("--two-dim", dest="kind", action="store_const", const="two_dim")
    group.add_argument("--hex", dest="kind", action="store_const", const="hex")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopzf",
        description="Cooperative zero-forcing schemes, oracles, and certified bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("topology", help="emit a topology document")
    _add_topology_flags(sub)
    _add_common(sub)

    sub = subs.add_parser("scheme", help="generate a scheme document")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--wyner", dest="kind", action="store_const", const="wyner")
    group.add_argument("--lc", dest="kind", action="store_const", const="lc")
    group.add_argument("--table1", dest="kind", action="store_const", const="table1")
    group.add_argument("--two-dim", dest="kind", action="store_const", const="two_dim")
    group.add_argument("--hex-coset", dest="kind", action="store_const", const="hex_coset")
    group.add_argument("--hex-coop", dest="kind", action="store_const", const="hex_coop")
    _add_common(sub)

    sub = subs.add_parser("verify", help="verify a scheme document from stdin numerically")
    _add_common(sub)

    sub = subs.add_parser("report", help="exact DoF accounting for a scheme document from stdin")
    _add_common(sub)

    sub = subs.add_parser("oracle", help="exact combinatorial searches")
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m1", dest="mode", action="store_const", const="m1")
    mode.add_argument("--coop", dest="mode", action="store_const", const="coop")
    mode.add_argument(
        "--max-activation", dest="mode", action="store_const", const="max_activation"
    )
    _add_topology_flags(sub)
    _add_common(sub)

    sub = subs.add_parser("certify", help="certified upper bounds and audits")
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--backhaul", dest="mode", action="store_const", const="backhaul")
    mode.add_argument("--groups", dest="mode", action="store_const", const="groups")
    mode.add_argument("--states", dest="mode", action="store_const", const="states")
    mode.add_argument("--lower-bound", dest="mode", action="store_const", const="lower_bound")
    _add_common(sub)

    sub = subs.add_parser("table1", help="chain-mixture table; omit --L for the checked report")
    _add_common(sub)

    return parser


def _resolve_seed(parsed_seed: int | None) -> int:
    if parsed_seed is not None:
        return parsed_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidParameterError(f"{SEED_ENV_VAR} must be an integer") from exc
    return 0


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        command=args.command,
        kind=getattr(args, "kind", None),
        mode=getattr(args, "mode", None),
        K=args.K,
        L=args.L,
        M=args.M,
        B=args.B,
        n=args.n,
        seed=_resolve_seed(args.seed),
        tol=args.tol,
        fmt=args.fmt,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = config_from_args(args)
        return run(config)
    except (InvalidParameterError, PreconditionViolationError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailureError, DecompositionFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
