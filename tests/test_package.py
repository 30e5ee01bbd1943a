"""The package surface: what ``coopzf`` exports."""

from __future__ import annotations

import ast
import gc
import importlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import coopzf


def test_all_names_resolve_once(monkeypatch):
    repeated = [name for name, count in Counter(coopzf.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in coopzf.__all__ if not hasattr(coopzf, name)]
    assert missing == []
    assert set(coopzf.__all__) <= set(dir(coopzf))
    with pytest.raises(AttributeError, match="no_such_name"):
        coopzf.no_such_name
    # Each name is the object its defining layer holds, read at access time.
    exported = {name: getattr(coopzf, name) for name in coopzf.__all__}
    strays = [
        name for name, obj in exported.items() if getattr(importlib.import_module(obj.__module__), name) is not obj
    ]
    assert strays == []
    assert coopzf.converse is importlib.import_module("coopzf.converse")
    monkeypatch.setattr(coopzf.zf_engine, "verify", stand_in := object())
    monkeypatch.setattr(coopzf.converse, "triangle_state_bound", stand_in)
    assert coopzf.verify is coopzf.triangle_state_bound is stand_in


# Exported functions that no module calls yet, each with the planned work
# (ROADMAP.md) that gives it a caller or deletes it.
_AWAITING_CALLERS = {
    "check_local_cooperation": "item 8, the chain DP's witness",
    "appendix_receiver_set": "item 9, the backhaul auditor",
    "reconstructibility_check": "item 9, the backhaul auditor",
}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a variable or an attribute, outside the function of that name."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside |= {node.name}
        match node:
            case ast.Name(id=name) | ast.Attribute(attr=name) if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    # Classes are exempt: the layers build and return them.
    read = set()
    for path in Path(coopzf.__file__).parent.glob("*.py"):
        read |= _names_read(ast.parse(path.read_text()))
    functions = {name for name in coopzf.__all__ if not isinstance(getattr(coopzf, name), type)}
    uncalled = functions - read
    assert sorted(uncalled - set(_AWAITING_CALLERS)) == []
    # Once an exempt function has a caller, its exemption goes.
    assert sorted(set(_AWAITING_CALLERS) - uncalled) == []


def _public_calls():
    """One zero-argument call per public entry point, its inputs built up front."""
    _, lattice = coopzf.build_hexagonal(6)
    rng = random.Random(7)
    sets = {i: frozenset({rng.choice(sorted(lattice.neighbors[i] | {i}))}) for i in lattice.coords}
    single = coopzf.MessageAssignment(K=36, transmit_sets=sets)
    certificate = coopzf.algorithm1_certify(lattice, single)
    _, coset = coopzf.hexagonal_coset_scheme(lattice)
    served = frozenset((i, i) for i in coset.active_messages)
    schedule = coopzf.AvoidanceSchedule(pairs=served, value=len(served))
    wyner = coopzf.build_wyner(8)
    assignment, scheme = coopzf.wyner_backhaul_scheme(8, 1)
    channels = coopzf.sample_channels(wyner, 3)
    document = coopzf.scheme_to_json(scheme, wyner, assignment)
    # The CLI's parser is built once per process; the help formatters
    # argparse makes while building it leave cycles behind them.
    coopzf.cli._parser()
    return {
        "certify": lambda: coopzf.algorithm1_certify(lattice, single),
        "audit": lambda: coopzf.validate_certificate(lattice, single, certificate),
        "state-bound": lambda: coopzf.triangle_state_bound(lattice, schedule),
        "cooperative": lambda: coopzf.max_avoidance_cooperative(wyner, 1),
        "m1": lambda: coopzf.max_avoidance_m1(wyner, node_limit=8),
        "activation": lambda: coopzf.max_activation_for_assignment(wyner, assignment),
        "lower-bound": lambda: coopzf.certify_lower_bound(wyner, scheme, assignment),
        "beams-verify": lambda: coopzf.verify(
            wyner, channels, scheme, coopzf.design_beams(wyner, channels, assignment, scheme)
        ),
        "backhaul": lambda: coopzf.backhaul_converse(assignment, 1),
        "walk": lambda: coopzf.reconstructibility_check(
            wyner, *reversed(coopzf.appendix_receiver_set(assignment, 1))
        ),
        # The calls that run with the cyclic collector paused.
        "wyner": lambda: coopzf.build_wyner(48),
        "lc": lambda: coopzf.build_locally_connected(48, 3),
        "two-dim": lambda: coopzf.build_two_dim(144),
        "wyner-K0": lambda: coopzf.build_wyner(0),
        "topology-from-dict": lambda: coopzf.topology_from_dict(wyner.to_dict()),
        "wyner-scheme": lambda: coopzf.wyner_backhaul_scheme(48, 3),
        "lc-scheme": lambda: coopzf.locally_connected_scheme(48, 2, 3),
        "table1-scheme": lambda: coopzf.table1_scheme(36, 4),
        "two-dim-scheme": lambda: coopzf.two_dim_scheme(144),
        "validate": lambda: coopzf.validate_scheme(wyner, assignment, scheme),
        "to-json": lambda: coopzf.scheme_to_json(scheme, wyner, assignment),
        "from-json": lambda: coopzf.scheme_from_json(document),
        "from-json-not-json": lambda: coopzf.scheme_from_json("not json"),
        "sample": lambda: coopzf.sample_channels(wyner, 3),
        # A usage error such as `scheme --wyner --K x` is left out: argparse's
        # own exception chain leaves 6 cyclic objects behind it.
        "cli-scheme": lambda: _main(["scheme", "--wyner", "--K", "8", "--B", "1"]),
        "cli-verify": lambda: _main(["verify", "--seed", "7"], document),
        "cli-report": lambda: _main(["report"], document),
        "cli-verify-not-json": lambda: _main(["verify", "--seed", "7"], "not json"),
    }


def _main(argv, stdin=""):
    """``cli.main(argv)`` on the given stdin, as its exit code and what it printed."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = coopzf.cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def _outcome(call):
    """What ``call()`` returns, or the type and message of the package error it raises."""
    try:
        return call()
    except coopzf.CoopZfError as exc:
        return type(exc), str(exc)


_PAUSED = (
    "wyner", "lc", "two-dim", "wyner-K0", "topology-from-dict",
    "wyner-scheme", "lc-scheme", "table1-scheme", "two-dim-scheme",
    "validate", "to-json", "from-json", "from-json-not-json", "sample", "beams-verify",
    "cli-scheme", "cli-verify", "cli-report", "cli-verify-not-json",
)
_CALLS = (
    "certify", "audit", "state-bound", "cooperative", "m1",
    "activation", "lower-bound", "backhaul", "walk", *_PAUSED,
)


@pytest.mark.parametrize("name", _CALLS)
def test_public_calls_leave_no_cyclic_garbage(name):
    # Reference counting frees everything a call made; the cyclic
    # collector finds nothing to do.  This is what makes pausing it safe.
    call = _public_calls()[name]
    gc.disable()
    try:
        gc.collect()
        _outcome(call)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", _PAUSED)
def test_paused_calls_restore_the_collector(name):
    # `wyner-K0` and `from-json-not-json` raise out of the paused call.
    call = _public_calls()[name]
    try:
        # On: on again after the call.
        expected = _outcome(call)
        assert gc.isenabled()
        # Off: left off, with the same result.
        gc.disable()
        assert _outcome(call) == expected
        assert not gc.isenabled()
        # Nested in another paused call: the outer call turns it back on.
        gc.enable()
        assert _outcome(coopzf.errors._collector_paused(call)) == expected
        assert gc.isenabled()
    finally:
        gc.enable()


def _large_calls():
    """Paused functions and arguments large enough that the collector would run during them."""
    K = 2400
    wyner = coopzf.build_wyner(K)
    assignment, scheme = coopzf.wyner_backhaul_scheme(K, 1)
    channels = coopzf.sample_channels(wyner, 0)
    beams = coopzf.design_beams(wyner, channels, assignment, scheme)
    return {
        "build_wyner": (K,),
        "wyner_backhaul_scheme": (K, 1),
        "scheme_to_json": (scheme, wyner, assignment),
        "scheme_from_json": (coopzf.scheme_to_json(scheme, wyner, assignment),),
        "sample_channels": (wyner, 0),
        "design_beams": (wyner, channels, assignment, scheme),
        "verify": (wyner, channels, scheme, beams),
    }


@pytest.mark.parametrize("name", (
    "build_wyner", "wyner_backhaul_scheme", "scheme_to_json", "scheme_from_json",
    "sample_channels", "design_beams", "verify",
))
def test_paused_calls_run_no_collection(name):
    paused, args = getattr(coopzf, name), _large_calls()[name]

    def collections(fn):
        seen = []
        gc.callbacks.append(lambda phase, info: seen.append(phase))
        try:
            fn(*args)
        finally:
            gc.callbacks.pop()
        return len(seen)

    assert collections(paused.__wrapped__) > 0
    assert collections(paused) == 0


# Argument guards that no other test reaches: (call, the message it raises).
_GUARDS = {
    "lc-scheme-M0": (lambda: coopzf.locally_connected_scheme(6, 2, 0), "M must be a positive integer"),
    "two-dim-scheme-K0": (lambda: coopzf.two_dim_scheme(0), "K must be >= 1"),
    "lc-K0": (lambda: coopzf.build_locally_connected(0, 2), "K must be >= 1"),
    "two-dim-K0": (lambda: coopzf.build_two_dim(0), "K must be >= 1"),
    "hex-empty": (lambda: coopzf.HexLattice(coords={}), "coords must be non-empty"),
    "hex-repeated": (lambda: coopzf.HexLattice(coords={1: (0, 0), 2: (1, 0), 3: (0, 0)}), "coords must be distinct"),
    "walk-sizes": (
        lambda: coopzf.reconstructibility_check(
            coopzf.build_wyner(4),
            coopzf.MessageAssignment(K=3, transmit_sets={i: frozenset({i}) for i in range(1, 4)}),
            frozenset(),
        ),
        "sizes disagree",
    ),
}


@pytest.mark.parametrize("name", _GUARDS)
def test_argument_guards_raise(name):
    call, message = _GUARDS[name]
    with pytest.raises(coopzf.InvalidParameterError, match=message):
        call()
