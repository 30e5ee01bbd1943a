"""Command-line front end for reproducible experiments.

Subcommands compose through JSON on stdin/stdout::

    coopzf scheme --wyner --K 8 --B 2 | coopzf verify --seed 7
    coopzf scheme --hex-coop --n 6 | coopzf report
    coopzf table1
    echo '{"K": 8, "transmit_sets": [...]}' | coopzf certify --backhaul --B 1

Each subcommand accepts only the flags it reads; any other flag is a
usage error.  Exit codes: 0 success; 1 failed verification, unsound
certificate, or table mismatch; 2 usage, invalid parameters, or a
malformed stdin document; 3 resource guard trip.
Only ``verify`` draws random channels.  Its seed is 0 unless ``--seed``
or the ``COOPZF_SEED`` environment variable says otherwise (the flag
wins); no other subcommand reads either.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from .assignment import assignment_from_dict
from .errors import (
    InvalidParameterError,
    PreconditionViolationError,
    ResourceLimitError,
    SolverFailureError,
    UnsupportedError,
    _check_users,
    _collector_paused,
    _document_errors,
)
from .schemes import (
    _check_hex_coop_side,
    dof_report,
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
    _is_wyner_chain,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
)

# The numeric engine, the searches and the certificates load inside the
# subcommands that call them, so scheme, report and table1 never import them.

SEED_ENV_VAR = "COOPZF_SEED"

_EXPECTED_TABLE1 = {
    2: Fraction(2, 3),
    3: Fraction(3, 5),
    4: Fraction(5, 9),
    5: Fraction(11, 21),
    6: Fraction(1, 2),
}

# The topology family each scheme family is generated on, where the names differ.
_SCHEME_TOPOLOGY = {"table1": "lc", "hex_coset": "hex", "hex_coop": "hex"}


def _require(value, flag: str):
    if value is None:
        raise InvalidParameterError(f"missing required flag {flag}")
    return value


def _build_topology(args: argparse.Namespace):
    """Topology (and lattice when hexagonal) from the selection flags."""
    kind = _SCHEME_TOPOLOGY.get(args.kind, args.kind)
    if kind == "wyner":
        return build_wyner(_require(args.K, "--K")), None
    if kind == "lc":
        return (
            build_locally_connected(_require(args.K, "--K"), _require(args.L, "--L")),
            None,
        )
    if kind == "two_dim":
        return build_two_dim(_require(args.K, "--K")), None
    return build_hexagonal(_require(args.n, "--n"))


def _as_int(value: Fraction, flag: str) -> int:
    if value.denominator != 1:
        raise InvalidParameterError(f"{flag} must be an integer here")
    return int(value)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _run_topology(args: argparse.Namespace) -> int:
    topology, _ = _build_topology(args)
    _emit(topology.to_json())
    return 0


def _run_scheme(args: argparse.Namespace) -> int:
    if args.kind in ("hex_coset", "hex_coop"):
        if args.kind == "hex_coop":
            # The side rule needs only n; an n x n lattice costs n^2 to build.
            _check_hex_coop_side(_require(args.n, "--n"))
        topology, lattice = _build_topology(args)
        generate = hexagonal_coset_scheme if args.kind == "hex_coset" else hexagonal_cooperative_scheme
        assignment, scheme = generate(lattice)
    else:
        # The generator checks its parameters before a topology of K users is built.
        K = _require(args.K, "--K")
        if args.kind == "wyner":
            B = _as_int(_require(args.B, "--B"), "--B")
            assignment, scheme = wyner_backhaul_scheme(K, B)
        elif args.kind == "lc":
            L, M = _require(args.L, "--L"), _require(args.M, "--M")
            assignment, scheme = locally_connected_scheme(K, L, M)
        elif args.kind == "table1":
            assignment, scheme = table1_scheme(K, _require(args.L, "--L"))
        else:
            assignment, scheme = two_dim_scheme(K)
        topology, _ = _build_topology(args)
    _emit(scheme_to_json(scheme, topology=topology, assignment=assignment))
    return 0


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


def _run_verify(args: argparse.Namespace) -> int:
    from .zf_engine import design_beams, sample_channels, verify

    seed = _resolve_seed(args.seed)
    scheme, topology, assignment = scheme_from_json(sys.stdin.read())
    channels = sample_channels(topology, seed)
    beams = design_beams(topology, channels, assignment, scheme)
    report = verify(topology, channels, scheme, beams, tol=args.tol)
    obj = report.to_dict()
    obj["active"] = report.dof
    obj["dof"] = str(Fraction(report.dof, scheme.K))
    obj["seed"] = seed
    _emit(json.dumps(obj))
    return 0 if report.passed else 1


def _run_report(args: argparse.Namespace) -> int:
    scheme, _, assignment = scheme_from_json(sys.stdin.read())
    _emit(dof_report(scheme, assignment).to_json())
    return 0


def _search_limits(args: argparse.Namespace) -> dict:
    """The exact-search guards the caller set; unset ones keep the oracle defaults."""
    limits = {"node_limit": args.node_limit, "time_limit": args.time_limit}
    return {key: value for key, value in limits.items() if value is not None}


def _run_oracle(args: argparse.Namespace) -> int:
    from .oracle import max_activation_for_assignment, max_avoidance_cooperative, max_avoidance_m1

    topology, lattice = _build_topology(args)
    if args.mode == "m1":
        value, schedule = max_avoidance_m1(topology, **_search_limits(args))
        out = {
            "value": value,
            "pairs": [list(p) for p in sorted(schedule.pairs)],
            "nodes_explored": schedule.nodes_explored,
        }
        if lattice is not None:
            boundary = frozenset(topology.hears) - lattice.interior
            served = {r for r, _ in schedule.pairs}
            for name, region in (("interior", lattice.interior), ("boundary", boundary)):
                hit = len(served & region)
                out[name] = {
                    "size": len(region),
                    "served": hit,
                    "ratio": str(Fraction(hit, len(region))) if region else None,
                }
        _emit(json.dumps(out))
        return 0
    if args.mode == "coop":
        B = _require(args.B, "--B")
        value, witness = max_avoidance_cooperative(topology, B, **_search_limits(args))
        out = {
            "value": value,
            "active": sorted(witness.active),
            "assignment": witness.assignment.to_dict(),
            "nodes_explored": witness.nodes_explored,
        }
        _emit(json.dumps(out))
        return 0
    assignment = _read_assignment(
        _hears_as(topology),
        f"max-activation searches the {topology.kind} network of {topology.K} users its flags build: "
        "the document's topology must hear as it does",
    )
    value, witness = max_activation_for_assignment(
        topology, assignment, **_search_limits(args)
    )
    out = {
        "value": value,
        "active": sorted(witness.active),
        "nodes_explored": witness.nodes_explored,
    }
    _emit(json.dumps(out))
    return 0


def _audited(lattice, assignment, certificate) -> int:
    """Print a group certificate with its audit problems; exit 1 when there are any."""
    from .converse import validate_certificate

    problems = validate_certificate(lattice, assignment, certificate)
    obj = certificate.to_json()
    obj["problems"] = problems
    _emit(json.dumps(obj))
    return 0 if not problems else 1


def _read_assignment(fits, need: str):
    """The assignment on stdin, read as lying on the caller's network.

    A bare ``{"K", "transmit_sets"}`` document says nothing more.  A
    ``topology`` section must list exactly ``K`` hearing rows, and
    ``fits(rows)`` must hold, or the ``need`` message is raised as a
    :class:`PreconditionViolationError`.
    """
    with _document_errors("assignment"):
        obj = json.loads(sys.stdin.read())
        assignment = assignment_from_dict(obj)
        if "topology" in obj:
            rows = obj["topology"]["hears"]
            _check_users("assignment", assignment.K, chain.from_iterable(rows))
            if not (len(rows) == assignment.K and fits(rows)):
                raise PreconditionViolationError(need)
    return assignment


def _hears_as(topology):
    """A ``fits`` test for :func:`_read_assignment`: the rows are the hearing sets of ``topology``."""
    return lambda rows: len(rows) == topology.K and all(set(r) == topology.hears[i] for i, r in enumerate(rows, 1))


def _run_certify(args: argparse.Namespace) -> int:
    from .converse import algorithm1_certify, backhaul_converse, schedule_assignment, triangle_state_bound
    from .oracle import AvoidanceSchedule, certify_lower_bound

    if args.mode == "backhaul":
        assignment = _read_assignment(
            _is_wyner_chain, "the backhaul converse needs a Wyner chain: receiver i must hear exactly {i-1, i}"
        )
        result = backhaul_converse(assignment, _require(args.B, "--B"))
        _emit(json.dumps(result.to_json()))
        return 0
    if args.mode == "groups":
        n = _require(args.n, "--n")
        topology, lattice = build_hexagonal(n)
        assignment = _read_assignment(
            _hears_as(topology),
            f"the group certificate needs the hexagonal lattice of side {n}: "
            "the document's topology must hear as it does",
        )
        return _audited(lattice, assignment, algorithm1_certify(lattice, assignment))
    if args.mode == "states":
        topology, lattice = build_hexagonal(_require(args.n, "--n"))
        with _document_errors("schedule"):
            listed = [(r, t) for r, t in json.loads(sys.stdin.read())["pairs"]]
            _check_users("schedule", topology.K, chain.from_iterable(listed))
        pairs = frozenset(listed)
        schedule = AvoidanceSchedule(pairs=pairs, value=len(pairs))
        certificate = triangle_state_bound(lattice, schedule)
        return _audited(lattice, schedule_assignment(schedule, topology.K), certificate)
    scheme, topology, assignment = scheme_from_json(sys.stdin.read())
    ok = certify_lower_bound(topology, scheme, assignment)
    _emit(
        json.dumps(
            {"certified": bool(ok), "active": len(scheme.active_messages), "K": scheme.K}
        )
    )
    return 0 if ok else 1


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
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    body = ["  ".join(str(r[c]).ljust(widths[c]) for c in columns) for r in rows]
    return "\n".join([header] + body)


def _run_table1(args: argparse.Namespace) -> int:
    if args.L is not None:
        row = _row_document(table1_row(args.L))
        if args.fmt == "json":
            _emit(json.dumps(row))
        else:
            _emit(_format_rows([row], args.fmt))
        return 0
    document = report_table1()
    if args.fmt == "json":
        _emit(json.dumps(document))
    else:
        _emit(_format_rows(document["rows"], args.fmt))
        for p in document["problems"]:
            print(f"mismatch: {p}", file=sys.stderr)
    return 0 if not document["problems"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator reported as a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# Every valued flag; each subparser declares only the ones its body reads.
_FLAGS = {
    "--K": {"type": int, "help": "number of users"},
    "--L": {"type": int, "help": "chain connectivity parameter"},
    "--M": {"type": int, "help": "cooperation order"},
    "--B": {"type": _fraction, "help": 'backhaul budget, e.g. "1" or "3/2"'},
    "--n": {"type": int, "help": "hexagonal lattice side length"},
    "--seed": {"type": int, "help": "random seed (else $COOPZF_SEED, else 0)"},
    "--tol": {"type": float, "default": 1e-8, "help": "relative interference tolerance"},
    "--format": {"dest": "fmt", "choices": ("json", "csv", "text"), "default": "json"},
    "--node-limit": {"type": int, "help": "exact-search size guard"},
    "--time-limit": {"type": float, "help": "exact-search seconds guard"},
}

_TOPOLOGY_KINDS = ("wyner", "lc", "two-dim", "hex")


def _add_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def _add_one_of(sub: argparse.ArgumentParser, dest: str, names: tuple[str, ...]) -> None:
    """Required choice of one ``--name`` switch; sets ``dest`` to the name, ``-`` as ``_``."""
    group = sub.add_mutually_exclusive_group(required=True)
    for name in names:
        group.add_argument(
            f"--{name}", dest=dest, action="store_const", const=name.replace("-", "_")
        )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first :func:`main` call and reused.

    Reuse is safe: every parse returns a fresh ``Namespace``, and argparse
    looks up ``sys.stdout``/``sys.stderr`` only when it prints.  Importing
    this module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog="coopzf",
        description="Cooperative zero-forcing schemes, oracles, and certified bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("topology", help="emit a topology document")
    _add_one_of(sub, "kind", _TOPOLOGY_KINDS)
    _add_flags(sub, "--K", "--L", "--n")
    sub.set_defaults(run=_run_topology)

    sub = subs.add_parser("scheme", help="generate a scheme document")
    _add_one_of(sub, "kind", ("wyner", "lc", "table1", "two-dim", "hex-coset", "hex-coop"))
    _add_flags(sub, "--K", "--L", "--M", "--B", "--n")
    sub.set_defaults(run=_run_scheme)

    sub = subs.add_parser("verify", help="verify a scheme document from stdin numerically")
    _add_flags(sub, "--seed", "--tol")
    sub.set_defaults(run=_run_verify)

    sub = subs.add_parser("report", help="exact DoF accounting for a scheme document from stdin")
    sub.set_defaults(run=_run_report)

    sub = subs.add_parser("oracle", help="exact combinatorial searches")
    _add_one_of(sub, "mode", ("m1", "coop", "max-activation"))
    _add_one_of(sub, "kind", _TOPOLOGY_KINDS)
    _add_flags(sub, "--K", "--L", "--n", "--B", "--node-limit", "--time-limit")
    sub.set_defaults(run=_run_oracle)

    sub = subs.add_parser("certify", help="certified upper bounds and audits")
    _add_one_of(sub, "mode", ("backhaul", "groups", "states", "lower-bound"))
    _add_flags(sub, "--B", "--n")
    sub.set_defaults(run=_run_certify)

    sub = subs.add_parser("table1", help="chain-mixture table; omit --L for the checked report")
    _add_flags(sub, "--L", "--format")
    sub.set_defaults(run=_run_table1)

    return parser


@_collector_paused
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.run(args)
    except (InvalidParameterError, PreconditionViolationError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
