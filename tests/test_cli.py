"""End-to-end command-line behavior, exercised in-process."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopzf import (
    MessageAssignment,
    ZfScheme,
    build_hexagonal,
    build_locally_connected,
    build_wyner,
    hexagonal_coset_scheme,
    scheme_to_json,
    wyner_backhaul_scheme,
)
from coopzf import cli, converse
from coopzf.cli import main, report_table1


def _run(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scheme_then_verify_pipe(capsys, monkeypatch):
    code, doc, _ = _run(["scheme", "--wyner", "--K", "8", "--B", "2"], capsys)
    assert code == 0
    code, out, _ = _run(["verify", "--seed", "7"], capsys, monkeypatch, stdin=doc)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["dof"] == "7/8"
    assert report["active"] == 7
    assert report["seed"] == 7
    assert report["max_residual"] < 1e-8


def test_pipeline_is_referentially_transparent(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        _, doc, _ = _run(["scheme", "--hex-coop", "--n", "6"], capsys)
        code, out, _ = _run(["verify", "--seed", "3"], capsys, monkeypatch, stdin=doc)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_report_subcommand(capsys, monkeypatch):
    for n, active in (("6", 18), ("12", 72)):
        code, doc, _ = _run(["scheme", "--hex-coop", "--n", n], capsys)
        assert code == 0, n
        code, out, _ = _run(["report"], capsys, monkeypatch, stdin=doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["achieved_dof"] == active
        assert rep["per_user_dof"] == "1/2"
        assert rep["backhaul"] == "1"


def test_hex_coop_checks_the_side_before_building_the_lattice(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_hexagonal", lambda n: built.append(n))
    code, out, err = _run(["scheme", "--hex-coop", "--n", "301"], capsys)
    assert (code, out, built) == (2, "", [])
    assert "lattice must be grid-built with side n a multiple of 6" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    _, doc, _ = _run(["scheme", "--wyner", "--K", "4", "--B", "1"], capsys)
    obj = json.loads(doc)
    obj["cancel_at"] = {key: [] for key in obj["cancel_at"]}
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=json.dumps(obj))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["max_residual"] > 1e-8


def test_verify_rejects_serving_outside_transmit_set(capsys, monkeypatch):
    # message 2 is known only at transmitter 1 but claims transmitter 2
    doc = {
        "K": 2,
        "active": [2],
        "serving": {"2": 2},
        "cancel_at": {"2": []},
        "deactivated": [],
        "topology": json.loads(build_wyner(2).to_json()),
        "transmit_sets": [[], [1]],
    }
    code, out, err = _run(["verify"], capsys, monkeypatch, stdin=json.dumps(doc))
    assert code == 2
    assert out == ""
    assert "outside its transmit set" in err


_MALFORMED_ROUTES = [
    ["verify"],
    ["report"],
    ["certify", "--backhaul", "--B", "1"],
    ["certify", "--groups", "--n", "3"],
    ["certify", "--states", "--n", "3"],
    ["certify", "--lower-bound"],
    ["oracle", "--max-activation", "--wyner", "--K", "4"],
]


def _wyner_document(K: int = 4, **fields) -> str:
    """The K-user, B=1 chain scheme document with some top-level fields replaced."""
    assignment, scheme = wyner_backhaul_scheme(K, 1)
    obj = json.loads(scheme_to_json(scheme, topology=build_wyner(K), assignment=assignment))
    obj.update(fields)
    return json.dumps(obj)


def _without(key: str) -> str:
    """The 4-user, B=1 chain scheme document without its top-level ``key``."""
    obj = json.loads(_wyner_document())
    del obj[key]
    return json.dumps(obj)


# Documents that parse but name users outside 1..K, mismatch the active
# set, embed a topology of another size or lack the topology or the
# transmit sets; for K=4, active is [1, 2, 4], served by transmitters 1, 2,
# 3, and T_1 = {1, 2}.  The "deactivated" list is derived data that no
# reader reads, so it cannot make a document inconsistent.
_INCONSISTENT_SCHEMES = {
    "cancel_at lacks 1": _wyner_document(cancel_at={"2": [], "4": []}),
    "cancel_at 1 names 9": _wyner_document(cancel_at={"1": [9], "2": [], "4": []}),
    "active names 99": _wyner_document(active=[1, 2, 4, 99]),
    "serving 1 names 9": _wyner_document(serving={"1": 9, "2": 2, "4": 3}),
    "topology K=4": _wyner_document(8, topology=json.loads(build_wyner(4).to_json())),
    # Values that equal users without being ints: sets would merge them.
    "active names true and 2.0": _wyner_document(active=[True, 2.0, 4]),
    "serving 1 names true": _wyner_document(serving={"1": True, "2": 2, "4": 3}),
    "transmit set 1 names 1.0": _wyner_document(transmit_sets=[[1.0, 2], [2], [], [3]]),
    "topology row 1 names true": _wyner_document(
        topology={**json.loads(build_wyner(4).to_json()), "hears": [[True], [1, 2], [2, 3], [3, 4]]}
    ),
    # Keys that int() reads as active users without being their decimal form.
    "serving key 01": _wyner_document(serving={"01": 1, "2": 2, "4": 3}),
    "serving key +1": _wyner_document(serving={"+1": 1, "2": 2, "4": 3}),
    "cancel_at key ' 2'": _wyner_document(cancel_at={"1": [2], " 2": [], "4": []}),
    "cancel_at key '2 '": _wyner_document(cancel_at={"1": [2], "2 ": [], "4": []}),
    "K 4.5": json.dumps({**json.loads(_wyner_document()), "K": 4.5}),
    "K '4'": json.dumps({**json.loads(_wyner_document()), "K": "4"}),
    "no topology": _without("topology"),
    "no transmit_sets": _without("transmit_sets"),
}

# Scheme documents whose other fields have the wrong JSON type; the readers
# would echo them (name) or read them as numbers (declared fractions, which
# are strings in every written document).
_WYNER_TOPOLOGY = json.loads(build_wyner(4).to_json())
_MISTYPED_FIELDS = {
    "name 5": _wyner_document(name=5),
    "name object": _wyner_document(name={"a": 1}),
    "declared pudof 1.5": _wyner_document(declared={"pudof": 1.5, "backhaul": "1"}),
    "declared pudof true": _wyner_document(declared={"pudof": True, "backhaul": "1"}),
    "declared backhaul 1": _wyner_document(declared={"pudof": "3/4", "backhaul": 1}),
    "declared list": _wyner_document(declared=["3/4", "1"]),
    "topology kind 7": _wyner_document(topology={**_WYNER_TOPOLOGY, "kind": 7}),
    "topology params [1]": _wyner_document(topology={**_WYNER_TOPOLOGY, "params": [1]}),
}

# Assignment and schedule documents whose K or users are not ints in 1..K.
_NON_INTEGER_USERS = {
    "transmit set names true": (
        ["certify", "--backhaul", "--B", "1"],
        {"K": 4, "transmit_sets": [[True], [2], [3], [4]]},
    ),
    "transmit set names 2.0": (
        ["oracle", "--max-activation", "--wyner", "--K", "4"],
        {"K": 4, "transmit_sets": [[1], [2.0], [3], [4]]},
    ),
    "K 4.5": (["certify", "--backhaul", "--B", "1"], {"K": 4.5, "transmit_sets": [[1], [2], [3], [4]]}),
    "K '9'": (["certify", "--groups", "--n", "3"], {"K": "9", "transmit_sets": [[i] for i in range(1, 10)]}),
    "K 0": (["certify", "--backhaul", "--B", "1"], {"K": 0, "transmit_sets": []}),
    "pair [1.9, 1]": (["certify", "--states", "--n", "3"], {"pairs": [[1.9, 1]]}),
    "pair [true, 1]": (["certify", "--states", "--n", "3"], {"pairs": [[True, 1]]}),
}

_MALFORMED_CASES = [
    pytest.param(argv, document, id=f"{' '.join(argv)}-{document}")
    for argv in _MALFORMED_ROUTES
    for document in ("{}", "not json", "[]", '{"K": "x", "pairs": 3}')
] + [
    pytest.param(argv, document, id=f"{' '.join(argv)}-{label}")
    for argv in (["verify"], ["report"], ["certify", "--lower-bound"])
    for label, document in {**_INCONSISTENT_SCHEMES, **_MISTYPED_FIELDS}.items()
] + [
    pytest.param(argv, json.dumps(obj), id=f"{' '.join(argv)}-{label}")
    for label, (argv, obj) in _NON_INTEGER_USERS.items()
]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1"])
def test_verify_rejects_tolerance_outside_unit_interval(capsys, monkeypatch, tol):
    # message 1 keeps only two of its three cancellations: residual ~1
    _, doc, _ = _run(["scheme", "--wyner", "--K", "8", "--B", "2"], capsys)
    obj = json.loads(doc)
    obj["cancel_at"]["1"] = [2, 3]
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=json.dumps(obj))
    assert code == 1
    code, out, err = _run(["verify", "--tol", tol], capsys, monkeypatch, stdin=json.dumps(obj))
    assert code == 2
    assert out == ""
    assert "tol must be in (0, 1)" in err


@pytest.mark.parametrize(("argv", "document"), _MALFORMED_CASES)
def test_malformed_stdin_exits_two(capsys, monkeypatch, argv, document):
    code, out, err = _run(argv, capsys, monkeypatch, stdin=document)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed")


# Documents whose "deactivated" list silences a transmitter an active
# message uses, names users of no network, or is missing; the list is
# derived when a document is written and never read.
_DERIVED_DEACTIVATED = {
    "deactivated names 1": _wyner_document(deactivated=[1, 4]),
    "deactivated names x and 999": _wyner_document(deactivated=["x", 999]),
    "no deactivated": _without("deactivated"),
}


@pytest.mark.parametrize(
    ("argv", "document"),
    [
        pytest.param(argv, document, id=f"{' '.join(argv)}-{label}")
        for argv in (["verify"], ["report"], ["certify", "--lower-bound"])
        for label, document in _DERIVED_DEACTIVATED.items()
    ],
)
def test_deactivated_is_derived_not_read(capsys, monkeypatch, argv, document):
    generated = _run(argv, capsys, monkeypatch, stdin=_wyner_document())
    assert generated[0] == 0
    assert _run(argv, capsys, monkeypatch, stdin=document) == generated


# Documents with the network "family" tag that older writers added; it is
# never read, whatever its JSON type.
_LEGACY_FAMILY = {
    "family ['linear', 1]": _wyner_document(family=["linear", 1]),
    "family 'ab'": _wyner_document(family="ab"),
    "family 5": _wyner_document(family=5),
}


@pytest.mark.parametrize(
    ("argv", "document"),
    [
        pytest.param(argv, document, id=f"{' '.join(argv)}-{label}")
        for argv in (["verify"], ["report"], ["certify", "--lower-bound"])
        for label, document in _LEGACY_FAMILY.items()
    ],
)
def test_legacy_family_is_not_read(capsys, monkeypatch, argv, document):
    generated = _run(argv, capsys, monkeypatch, stdin=_wyner_document())
    assert generated[0] == 0
    assert _run(argv, capsys, monkeypatch, stdin=document) == generated


def _huge_k_cases():
    """An 8-user chain document whose K, top-level or embedded, claims 10**12 users."""
    huge = 10**12
    doc = json.loads(_wyner_document(8))
    cases = {
        "verify-document K": (["verify"], {**doc, "K": huge}),
        "verify-topology K": (["verify"], {**doc, "topology": {**doc["topology"], "K": huge}}),
        "report-document K": (["report"], {**doc, "K": huge}),
        "certify --backhaul-assignment K": (
            ["certify", "--backhaul", "--B", "1"],
            {"K": huge, "transmit_sets": doc["transmit_sets"]},
        ),
        # json reads 1e400 as an infinite float, which int() cannot take
        "report-document K infinite": (["report"], {**doc, "K": float("inf")}),
        "certify --backhaul-assignment K infinite": (
            ["certify", "--backhaul", "--B", "1"],
            {"K": float("inf"), "transmit_sets": doc["transmit_sets"]},
        ),
    }
    return [pytest.param(argv, json.dumps(obj), id=label) for label, (argv, obj) in cases.items()]


@pytest.mark.parametrize(("argv", "document"), _huge_k_cases())
def test_huge_K_is_rejected_without_building_its_range(capsys, monkeypatch, argv, document):
    start = time.perf_counter()
    code, out, _ = _run(argv, capsys, monkeypatch, stdin=document)
    assert code == 2
    assert out == ""
    assert time.perf_counter() - start < 0.5


def _hex_coset_document(n: int) -> str:
    """The coset scheme document on the hexagonal lattice of side n."""
    topology, lattice = build_hexagonal(n)
    assignment, scheme = hexagonal_coset_scheme(lattice)
    return scheme_to_json(scheme, topology=topology, assignment=assignment)


# Every stdin route that reads each whole document: the chain document also
# feeds the two commands that read its assignment on the Wyner chain, and
# the hexagonal one the group certificate of its side.
_COMMON_ROUTES = (["verify"], ["report"], ["certify", "--lower-bound"])
_TOTALITY_DOCUMENTS = {
    "wyner": (
        _wyner_document(8),
        _COMMON_ROUTES
        + (["certify", "--backhaul", "--B", "1"], ["oracle", "--max-activation", "--wyner", "--K", "8"]),
    ),
    "hex-coset": (_hex_coset_document(3), _COMMON_ROUTES + (["certify", "--groups", "--n", "3"],)),
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_documents(draw):
    """One scheme document with one field, at any depth, replaced or deleted."""
    label = draw(st.sampled_from(sorted(_TOTALITY_DOCUMENTS)))
    text, routes = _TOTALITY_DOCUMENTS[label]
    node = doc = json.loads(text)
    parent = key = None
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
        parent, node = node, node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return json.dumps(doc), routes


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_mutated_documents())
def test_stdin_readers_are_total(case):
    # Hypothesis runs each example many times, so the streams are swapped
    # here rather than through function-scoped fixtures.
    document, routes = case
    for argv in routes:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(document), io.StringIO(), io.StringIO()
        try:
            code = main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        assert code in (0, 1, 2), (argv, code)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--wyner", "--K", "2000002", "--B", "1"], "K must be a positive multiple of 4"),
        (["--lc", "--K", "2000001", "--L", "3", "--M", "2"], "K must be a positive multiple of 7"),
        (["--table1", "--K", "2000004", "--L", "4"], "K must be a positive multiple of 18 for L=4"),
        (["--two-dim", "--K", "2002225"], "sqrt(K) must be a multiple of 12"),
    ],
    ids=["wyner", "lc", "table1", "two-dim"],
)
def test_scheme_parameters_are_checked_before_the_topology(capsys, argv, message):
    # A K the generator refuses is reported without building its K-user topology.
    start = time.perf_counter()
    code, out, err = _run(["scheme", *argv], capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Flags another subcommand reads; each is a usage error here.
_UNREAD_FLAGS = [
    (["verify", "--K", "8"], "scheme"),
    (["verify", "--format", "csv"], "scheme"),
    (["report", "--tol", "1e-3"], "scheme"),
    (["report", "--seed", "1"], "scheme"),
    (["table1", "--seed", "3"], None),
    (["topology", "--wyner", "--K", "4", "--B", "1"], None),
    (["certify", "--groups", "--n", "3", "--seed", "1"], "assignment"),
    (["oracle", "--m1", "--hex", "--n", "4", "--tol", "0.1"], None),
    (["certify", "--lower-bound", "--node-limit", "12"], "scheme"),
    (["certify", "--lower-bound", "--time-limit", "1"], "scheme"),  # read by no subcommand
]


@pytest.mark.parametrize(
    ("argv", "stdin"), _UNREAD_FLAGS, ids=[" ".join(argv) for argv, _ in _UNREAD_FLAGS]
)
def test_subcommands_reject_flags_they_do_not_read(capsys, monkeypatch, argv, stdin):
    documents = {
        None: "",
        "scheme": _wyner_document(8),
        "assignment": json.dumps({"K": 9, "transmit_sets": [[] for _ in range(9)]}),
    }
    code, out, err = _run(argv, capsys, monkeypatch, stdin=documents[stdin])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_seed_resolution_order(capsys, monkeypatch):
    _, doc, _ = _run(["scheme", "--wyner", "--K", "8", "--B", "1"], capsys)
    code, out, _ = _run(["verify", "--seed", "7"], capsys, monkeypatch, stdin=doc)
    assert code == 0 and json.loads(out)["seed"] == 7


def test_negative_seed_exits_two(capsys, monkeypatch):
    doc = _wyner_document(4)
    code, out, err = _run(["verify", "--seed", "-5"], capsys, monkeypatch, stdin=doc)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be >= 0")


def test_default_seed_is_zero(capsys, monkeypatch):
    _, doc, _ = _run(["scheme", "--wyner", "--K", "4", "--B", "1"], capsys)
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=doc)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_topology_document(capsys):
    code, out, _ = _run(["topology", "--hex", "--n", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hexagonal"
    assert doc["K"] == 9
    assert len(doc["hears"]) == 9
    assert all(i in row for i, row in enumerate(doc["hears"], start=1))


def test_usage_errors_exit_two(capsys, monkeypatch):
    assert main(["scheme", "--wyner", "--B", "1"]) == 2  # missing --K
    capsys.readouterr()
    assert main(["scheme", "--bogus"]) == 2  # argparse rejection
    capsys.readouterr()
    assert main(["oracle", "--m1"]) == 2  # topology flag required
    capsys.readouterr()
    assert main(["table1", "--L", "9"]) == 2  # row out of range
    capsys.readouterr()
    assert main(["scheme", "--wyner", "--K", "8", "--B", "3/2"]) == 2  # non-integer budget
    capsys.readouterr()


def test_resource_guard_exits_three(capsys):
    # hex n=4 at B=2 needs 2.75 million nodes.
    argv = ["oracle", "--coop", "--hex", "--n", "4", "--B", "2", "--node-limit", "10000"]
    code, out, err = _run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err == "error: search passed node_limit=10000: setup charge 0, 10001 nodes\n"


def test_oracle_m1_with_lattice_regions(capsys):
    code, out, _ = _run(["oracle", "--m1", "--hex", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 7
    assert doc["interior"]["size"] == 5
    assert doc["boundary"]["size"] == 11
    assert doc["interior"]["served"] + doc["boundary"]["served"] == 7
    assert doc["nodes_explored"] > 0


def test_oracle_coop(capsys):
    code, out, _ = _run(["oracle", "--coop", "--wyner", "--K", "4", "--B", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert len(doc["active"]) == 3


def test_oracle_max_activation(capsys, monkeypatch):
    a, _ = wyner_backhaul_scheme(8, 1)
    code, out, _ = _run(
        ["oracle", "--max-activation", "--wyner", "--K", "8"],
        capsys,
        monkeypatch,
        stdin=a.to_json(),
    )
    assert code == 0
    assert json.loads(out)["value"] == 6


def test_oracle_max_activation_needs_the_network_its_flags_build(capsys, monkeypatch):
    # The LC L=2 assignment serves 8 of 12 users on its own network; read
    # on the Wyner chain it would serve only 4.
    _, doc, _ = _run(["scheme", "--lc", "--K", "12", "--L", "2", "--M", "2"], capsys)
    wyner = ["oracle", "--max-activation", "--wyner", "--K", "12"]
    code, out, err = _run(wyner, capsys, monkeypatch, stdin=doc)
    assert (code, out) == (2, "")
    assert err == (
        "error: max-activation searches the wyner network of 12 users its flags build: "
        "the document's topology must hear as it does\n"
    )
    code, out, _ = _run(["oracle", "--max-activation", "--lc", "--L", "2", "--K", "12"], capsys, monkeypatch, stdin=doc)
    assert (code, json.loads(out)["value"]) == (0, 8)
    # the same transmit sets bare are read on the flags' network
    obj = json.loads(doc)
    bare = json.dumps({"K": obj["K"], "transmit_sets": obj["transmit_sets"]})
    code, out, _ = _run(wyner, capsys, monkeypatch, stdin=bare)
    assert (code, json.loads(out)["value"]) == (0, 4)


@pytest.mark.parametrize(("oracle_K", "assignment_K"), [(8, 4), (4, 8)])
def test_oracle_max_activation_rejects_size_mismatch(capsys, monkeypatch, oracle_K, assignment_K):
    a, _ = wyner_backhaul_scheme(assignment_K, 1)
    code, out, err = _run(
        ["oracle", "--max-activation", "--wyner", "--K", str(oracle_K)],
        capsys,
        monkeypatch,
        stdin=a.to_json(),
    )
    assert code == 2
    assert out == ""
    assert "sizes disagree" in err


@pytest.mark.parametrize("mode", ["--m1", "--coop"])
@pytest.mark.parametrize("limit", ["0", "-4"])
def test_node_limit_must_be_positive(capsys, mode, limit):
    argv = ["oracle", mode, "--wyner", "--K", "4", "--B", "1", "--node-limit", limit]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "node_limit must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "--wyner", "--K", "8"],
        ["oracle", "--coop", "--wyner", "--K", "4"],
        ["certify", "--backhaul"],
    ],
    ids=["scheme", "oracle", "certify"],
)
def test_zero_denominator_budget_is_a_usage_error(capsys, argv):
    code, out, err = _run(argv + ["--B", "1/0"], capsys)
    assert code == 2
    assert out == ""
    assert "error: argument --B: invalid Fraction value: '1/0'" in err


def test_negative_budget_exits_two(capsys):
    code, out, err = _run(["oracle", "--coop", "--wyner", "--K", "4", "--B", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "error: B must be >= 0, got -1" in err


def test_certify_backhaul(capsys, monkeypatch):
    a, _ = wyner_backhaul_scheme(8, 1)
    code, out, _ = _run(
        ["certify", "--backhaul", "--B", "1"], capsys, monkeypatch, stdin=a.to_json()
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 0
    assert doc["S"] == [3, 7]
    assert doc["A_bar"] == [3, 7]
    assert doc["bound"] == 6
    assert doc["slack"] == "0"
    assert doc["scanned"] == {"0": 6, "1": 6}


def test_certify_backhaul_scans_no_cutoff_beyond_the_users(capsys, monkeypatch):
    # a cutoff M >= K keeps no candidate, so a huge budget costs nothing extra
    doc = json.dumps({"K": 2, "transmit_sets": [[1], [2]]})
    start = time.perf_counter()
    code, out, _ = _run(["certify", "--backhaul", "--B", "1000000000"], capsys, monkeypatch, stdin=doc)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    result = json.loads(out)
    assert result["scanned"] == {"0": 2, "1": 2}
    assert (result["M"], result["bound"]) == (0, 2)


def test_certify_backhaul_rejects_a_budget_that_is_not_an_integer(capsys, monkeypatch):
    a, _ = wyner_backhaul_scheme(8, 1)
    code, out, err = _run(
        ["certify", "--backhaul", "--B", "3/2"], capsys, monkeypatch, stdin=a.to_json()
    )
    assert (code, out) == (2, "")
    assert err == "error: only integer backhaul budgets are scanned\n"


def test_certify_backhaul_needs_the_wyner_chain(capsys, monkeypatch):
    # every user served alone on the interference-free K=8 network: the
    # Wyner scan's bound of 6 would be false there
    K = 8
    assignment = MessageAssignment(K=K, transmit_sets={i: frozenset({i}) for i in range(1, K + 1)})
    scheme = ZfScheme(
        K=K,
        active_messages=frozenset(range(1, K + 1)),
        serving={i: i for i in range(1, K + 1)},
        cancel_at={i: () for i in range(1, K + 1)},
        declared_pudof=Fraction(1),
        declared_backhaul=Fraction(1),
    )
    free = scheme_to_json(scheme, build_locally_connected(K, 0), assignment)
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=free)
    assert (code, json.loads(out)["dof"]) == (0, "1")
    code, out, _ = _run(["certify", "--lower-bound"], capsys, monkeypatch, stdin=free)
    assert (code, json.loads(out)) == (0, {"certified": True, "active": 8, "K": 8})
    code, out, err = _run(["certify", "--backhaul", "--B", "1"], capsys, monkeypatch, stdin=free)
    assert (code, out) == (2, "")
    assert err == "error: the backhaul converse needs a Wyner chain: receiver i must hear exactly {i-1, i}\n"
    # the same transmit sets bare, or on the Wyner chain, are scanned
    for doc in (assignment.to_json(), scheme_to_json(scheme, build_wyner(K), assignment)):
        code, out, _ = _run(["certify", "--backhaul", "--B", "1"], capsys, monkeypatch, stdin=doc)
        assert (code, json.loads(out)["bound"]) == (0, 6)
    # a topology section that is not a topology is a malformed document on
    # every assignment reader, before the reader compares it with its network
    obj = json.loads(assignment.to_json())
    chain_with_a_float = [[1.0]] + [[i, i + 1] for i in range(1, 8)]
    readers = (
        ["certify", "--backhaul", "--B", "1"],
        ["certify", "--groups", "--n", "3"],
        ["oracle", "--max-activation", "--wyner", "--K", "8"],
    )
    for argv in readers:
        for topology in (5, {"hears": 5}, {"hears": [5] * 8}, {"hears": chain_with_a_float}):
            code, out, err = _run(argv, capsys, monkeypatch, stdin=json.dumps({**obj, "topology": topology}))
            assert (code, out) == (2, ""), (argv, topology)
            assert err.startswith("error: malformed assignment document"), (argv, topology)


def test_certify_groups(capsys, monkeypatch):
    empty = json.dumps({"K": 9, "transmit_sets": [[] for _ in range(9)]})
    code, out, _ = _run(["certify", "--groups", "--n", "3"], capsys, monkeypatch, stdin=empty)
    assert code == 0
    doc = json.loads(out)
    assert doc["problems"] == []
    assert all(g["bound"] == "0" for g in doc["groups"])


def test_certify_groups_needs_the_lattice_of_its_side(capsys, monkeypatch):
    # every user served alone on the interference-free K=9 network: the
    # lattice's bound of 7 would be false there
    K = 9
    assignment = MessageAssignment(K=K, transmit_sets={i: frozenset({i}) for i in range(1, K + 1)})
    scheme = ZfScheme(
        K=K,
        active_messages=frozenset(range(1, K + 1)),
        serving={i: i for i in range(1, K + 1)},
        cancel_at={i: () for i in range(1, K + 1)},
        declared_pudof=Fraction(1),
        declared_backhaul=Fraction(1),
    )
    free = scheme_to_json(scheme, build_locally_connected(K, 0), assignment)
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=free)
    assert (code, json.loads(out)["dof"]) == (0, "1")
    code, out, err = _run(["certify", "--groups", "--n", "3"], capsys, monkeypatch, stdin=free)
    assert (code, out) == (2, "")
    assert err == (
        "error: the group certificate needs the hexagonal lattice of side 3: "
        "the document's topology must hear as it does\n"
    )
    # the lattice's own hearing sets, reordered or of another side, are refused too
    _, coset, _ = _run(["scheme", "--hex-coset", "--n", "3"], capsys)
    obj = json.loads(coset)
    rows = obj["topology"]["hears"]
    for hears, n in ((rows[1:] + rows[:1], "3"), (rows, "4")):
        doc = json.dumps({**obj, "topology": {**obj["topology"], "hears": hears}})
        code, out, err = _run(["certify", "--groups", "--n", n], capsys, monkeypatch, stdin=doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: the group certificate needs the hexagonal lattice")
    # the scheme on its own lattice, or its transmit sets bare, print one certificate
    bare = json.dumps({"K": obj["K"], "transmit_sets": obj["transmit_sets"]})
    outs = []
    for doc in (coset, bare):
        code, out, _ = _run(["certify", "--groups", "--n", "3"], capsys, monkeypatch, stdin=doc)
        assert (code, json.loads(out)["certified_bound"]) == (0, 7)
        outs.append(out)
    assert outs[0] == outs[1]
    # a topology section that is not a topology is a malformed document
    lattice_with_a_float = [[1.0, 2, 4]] + rows[1:]
    for topology in (5, {"hears": 5}, {"hears": [5] * 9}, {"hears": lattice_with_a_float}):
        code, out, err = _run(
            ["certify", "--groups", "--n", "3"], capsys, monkeypatch, stdin=json.dumps({**obj, "topology": topology})
        )
        assert (code, out) == (2, ""), topology
        assert err.startswith("error: malformed assignment document"), topology


def test_certify_states(capsys, monkeypatch):
    _, doc, _ = _run(["scheme", "--hex-coset", "--n", "6"], capsys)
    active = json.loads(doc)["active"]
    schedule = json.dumps({"pairs": [[i, i] for i in active]})
    code, out, _ = _run(["certify", "--states", "--n", "6"], capsys, monkeypatch, stdin=schedule)
    assert code == 0
    cert = json.loads(out)
    assert cert["certified_bound"] == 18
    assert len(cert["groups"]) == 9


def _coset_schedule(capsys, n: int) -> str:
    _, doc, _ = _run(["scheme", "--hex-coset", "--n", str(n)], capsys)
    return json.dumps({"pairs": [[i, i] for i in json.loads(doc)["active"]]})


def test_certify_states_prints_its_audit(capsys, monkeypatch):
    schedule = _coset_schedule(capsys, 6)
    code, out, _ = _run(["certify", "--states", "--n", "6"], capsys, monkeypatch, stdin=schedule)
    assert code == 0
    assert '"problems": []' in out


def test_certify_states_exits_one_on_tampered_bound(capsys, monkeypatch):
    honest = converse.triangle_state_bound

    def tampered(lattice, schedule):
        cert = honest(lattice, schedule)
        g0 = dataclasses.replace(cert.groups[0], bound=cert.groups[0].bound - 1)
        return dataclasses.replace(cert, groups=(g0,) + cert.groups[1:])

    monkeypatch.setattr(converse, "triangle_state_bound", tampered)
    schedule = _coset_schedule(capsys, 6)
    code, out, _ = _run(["certify", "--states", "--n", "6"], capsys, monkeypatch, stdin=schedule)
    assert code == 1
    doc = json.loads(out)
    g0 = doc["groups"][0]
    honest = Fraction(g0["bound"]) + 1
    assert f"group {g0['nodes']} records bound {g0['bound']} but its multipliers sum to {honest}" in doc["problems"]


def test_certify_groups_exits_one_on_tampered_bound(capsys, monkeypatch):
    honest = converse.algorithm1_certify

    def tampered(lattice, assignment):
        cert = honest(lattice, assignment)
        g0 = dataclasses.replace(cert.groups[0], bound=cert.groups[0].bound - 1)
        return dataclasses.replace(cert, groups=(g0,) + cert.groups[1:])

    monkeypatch.setattr(converse, "algorithm1_certify", tampered)
    self_serving = json.dumps({"K": 9, "transmit_sets": [[i] for i in range(1, 10)]})
    code, out, _ = _run(["certify", "--groups", "--n", "3"], capsys, monkeypatch, stdin=self_serving)
    assert code == 1
    doc = json.loads(out)
    g0 = doc["groups"][0]
    assert g0["bound"] == "0"
    assert f"group {g0['nodes']} records bound 0 but its multipliers sum to 1" in doc["problems"]


@pytest.mark.parametrize("pairs", [[[99, 99]], [[0, 1]], [[1, 99]]], ids=["99-99", "0-1", "1-99"])
def test_certify_states_rejects_users_outside_lattice(capsys, monkeypatch, pairs):
    schedule = json.dumps({"pairs": pairs})
    code, out, err = _run(["certify", "--states", "--n", "3"], capsys, monkeypatch, stdin=schedule)
    assert code == 2
    assert out == ""
    assert "outside 1..9" in err


# Structurally valid, but receiver 2 hears the same single antenna of
# T_3 = {2, 4} as receiver 3, so message 3 cannot be delivered.
_UNDELIVERABLE = _wyner_document(
    active=[2, 3],
    serving={"2": 1, "3": 2},
    cancel_at={"2": [], "3": [2]},
    transmit_sets=[[], [1], [2, 4], []],
)


def test_certify_lower_bound_pass_and_fail(capsys, monkeypatch):
    _, doc, _ = _run(["scheme", "--wyner", "--K", "4", "--B", "1"], capsys)
    code, out, _ = _run(["certify", "--lower-bound"], capsys, monkeypatch, stdin=doc)
    assert code == 0
    assert json.loads(out)["certified"] is True
    obj = json.loads(doc)
    first = sorted(obj["serving"])[0]
    obj["serving"][first] = 4  # outside that message's transmit set
    code, out, _ = _run(
        ["certify", "--lower-bound"], capsys, monkeypatch, stdin=json.dumps(obj)
    )
    assert code == 1
    assert json.loads(out)["certified"] is False
    code, out, _ = _run(["certify", "--lower-bound"], capsys, monkeypatch, stdin=_UNDELIVERABLE)
    assert code == 1
    assert json.loads(out) == {"certified": False, "active": 2, "K": 4}


def test_verify_names_an_undeliverable_message(capsys, monkeypatch):
    code, out, err = _run(["verify"], capsys, monkeypatch, stdin=_UNDELIVERABLE)
    assert (code, out) == (1, "")
    assert err == "error: cancellation system for message 3 is singular\n"


def test_table_single_row(capsys):
    code, out, _ = _run(["table1", "--L", "4"], capsys)
    assert code == 0
    row = json.loads(out)
    assert row["pudof"] == "5/9"
    assert row["ratio"] == "4:5"
    assert row["K_min"] == 18


def test_table_full_report(capsys):
    code, out, _ = _run(["table1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["problems"] == []
    assert [r["pudof"] for r in doc["rows"]] == ["2/3", "3/5", "5/9", "11/21", "1/2"]
    assert report_table1()["problems"] == []


def test_table_formats(capsys):
    code, out, _ = _run(["table1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,pudof,backhaul,ratio,K_min"
    assert len(lines) == 6
    code, out, _ = _run(["table1", "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == ["L", "pudof", "backhaul", "ratio", "K_min"]


# A fixed script of invocations with their exit codes; ``_PIPE`` feeds the
# stdout of the latest ``scheme`` call to stdin.  Each call's exit code,
# stdout and stderr are hashed together, so a change to any byte of the
# front end's output (argparse's usage text included) moves a digest.
# argparse's wording differs between Python minor versions; the digests
# are of Python 3.11.
_PIPE = object()
_DROPPED_CANCELLATION = _wyner_document(
    8, cancel_at={"1": [], "2": [], "4": [], "5": [6], "6": [], "8": []}
)
_TRANSCRIPT = [
    (["scheme", "--wyner", "--K", "8", "--B", "1"], None, 0),
    (["verify", "--seed", "7"], _PIPE, 0),
    (["certify", "--backhaul", "--B", "1"], _PIPE, 0),
    (["oracle", "--max-activation", "--wyner", "--K", "8"], _PIPE, 0),
    (["scheme", "--lc", "--K", "12", "--L", "2", "--M", "2"], None, 0),
    (["verify"], _PIPE, 0),
    (["scheme", "--table1", "--K", "18", "--L", "4"], None, 0),
    (["verify", "--seed", "2"], _PIPE, 0),
    (["scheme", "--two-dim", "--K", "144"], None, 0),
    (["verify"], _PIPE, 0),
    (["scheme", "--hex-coset", "--n", "6"], None, 0),
    (["verify", "--seed", "5"], _PIPE, 0),
    (["report"], _PIPE, 0),
    (["scheme", "--hex-coop", "--n", "6"], None, 0),
    (["verify", "--seed", "3"], _PIPE, 0),
    (["report"], _PIPE, 0),
    (["certify", "--lower-bound"], _PIPE, 0),
    (["certify", "--groups", "--n", "3"], json.dumps({"K": 9, "transmit_sets": [[] for _ in range(9)]}), 0),
    (["certify", "--states", "--n", "3"], json.dumps({"pairs": [[1, 1], [5, 5]]}), 0),
    (["oracle", "--m1", "--hex", "--n", "4"], None, 0),
    (["oracle", "--coop", "--wyner", "--K", "4", "--B", "1"], None, 0),
    (["table1"], None, 0),
    (["table1", "--format", "csv"], None, 0),
    (["table1", "--L", "5", "--format", "text"], None, 0),
    (["verify"], _DROPPED_CANCELLATION, 1),
    (["scheme", "--bogus"], None, 2),
    (["report"], "not json", 2),
    (["oracle", "--m1", "--wyner", "--K", "40", "--node-limit", "5"], None, 3),
]

_TRANSCRIPT_SHA256 = [
    "1efc174795cd40e18ef36ec922c87ff30f706b40fcbda9e4819431d8c7c25cbd",
    "74d4858d247d342145b6a4b6bc535b4496cc9cac12c7900c41cf03589a6849ce",
    "b8b9b811ebb96163ec2cb8054a65733a5a3e840b300031c9ead8c9c5594d54ea",
    "74934500f926ec26ab5687b628115e6ca5dcc7f3faf9c7ee1ee88a1c3b35ac20",
    "8a2eecacbe32ef5c9dbafa3b270ff5b355a398940d66560f80d3d3efc4f5bb30",
    "6c7718d9912aad54a4a5e79a35b378e2d6dfe21ebea7b2c3a658b79f4f3f3694",
    "4f32df76f8f8a940ac56402579850672d2b07ab6af3d7b95538145c909c20e03",
    "7c0006f7e45ee272266d75f4e6c81d5146599d36fdad88f1bd702e73c3123e16",
    "5dace5f18529ad42c4c4652bbfd9681c71d67fec9192975b4807db4ef7abaffb",
    "e16981dfa35dba4d6fe66844501ddcd608bc7e80715a8d2ef310e45af3002ac9",
    "a73dab950f12b6b48e5ee2dda9039556ba26c7593e099c19ad0973be89832d9f",
    "4cedd47406efe99e6160e8c87fdae499b6ddf11281f6240fa73c4781ae50f256",
    "ee785335d8abfc5914d6cb066e4b5ac17f87fb8a1c60ae0806c418b77e8c5917",
    "b76fcca1faa1cd97c85831507ba8bdc763ee9a2c90fc2cb049bb6bd3137d8d79",
    "01e9e6877713df29eeb067a255df20911092e5eee19329fd5700b43dc4739099",
    "78e5cc7234eb73ec7089df06afee9eacac32c7c0a8c02cf546d9402aedf1fcc5",
    "98fed51f15db93fa0c861923ecd957bb62c52262fdf6a04f962f2d9e5352247f",
    "847530fe1e0d48567180cd08b58f988abd72ec716a7c6f49014989dfabab8abd",
    "c1c3e47ffaf9f26a2afb7d25a8a0875bd3a2439fa7d33cf566149e67da1a70a1",
    "a23cc549d9a5629dc99b8db182678afc47296452163e0ccf61430b7091deb281",
    "2f9f328c450249153b120d67c4fb59485a9ec3365a1178b91b3d823d3760e06f",
    "c8577c4fd0c6722197c24bd5cac6681920460171574fb2c0d1bd3022e26fffac",
    "109b09198565b72b420fdbf0f3eacda4f81d6de729a1c8bcddff542e439c9a85",
    "8a736deb962bb95d9f380338ad3dd52780ba0d4565db3c5daab122bc5d8b3d0a",
    "f09b45bf284f1f7365823065951769fee46afe37047f3eec0248c0f6e8878e0c",
    "150d8d318cba5b282759e36d582efe26a135edbaa2d50c0fd1730eb493c25737",
    "d4a0d195b9312088552f49954a3ef89f0e0a3126e540342bbc002c949288da15",
    "28665f08b1e815419e2ca9271e131f49b7c2020815b1cd12a2e0e5df5bed661e",
]


def _transcript(capsys, monkeypatch) -> tuple[list[int], list[str]]:
    codes, digests, scheme_out = [], [], ""
    for argv, stdin, _ in _TRANSCRIPT:
        monkeypatch.setattr(sys, "stdin", io.StringIO(scheme_out if stdin is _PIPE else stdin or ""))
        code = main(argv)
        out, err = capsys.readouterr()
        if argv[0] == "scheme":
            scheme_out = out
        codes.append(code)
        digests.append(hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest())
    return codes, digests


def test_pinned_cli_transcript(capsys, monkeypatch):
    """Two runs of the script in one process print the pinned bytes both times."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    for _ in range(2):
        codes, digests = _transcript(capsys, monkeypatch)
        assert codes == [code for _, _, code in _TRANSCRIPT]
        assert digests == _TRANSCRIPT_SHA256


@pytest.mark.parametrize("value", ["41", "not-a-number"])
def test_no_command_reads_the_environment(capsys, monkeypatch, value):
    """A seed variable in the environment changes no byte of the transcript."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("COOPZF_SEED", value)
    codes, digests = _transcript(capsys, monkeypatch)
    assert codes == [code for _, _, code in _TRANSCRIPT]
    assert digests == _TRANSCRIPT_SHA256


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(("argv", "code"), [(["scheme", "--bogus"], 2), (["--help"], 0)], ids=["usage-error", "help"])
def test_reused_parser_prints_to_the_streams_current_at_each_call(monkeypatch, argv, code):
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        assert main(argv) == code
        printed, silent = (err, out) if code else (out, err)
        assert printed.getvalue().startswith("usage: coopzf")
        assert silent.getvalue() == ""


def test_no_parsed_value_carries_over_to_the_next_call(capsys, monkeypatch):
    doc = _wyner_document(8)
    code, out, _ = _run(["verify", "--seed", "5"], capsys, monkeypatch, stdin=doc)
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out, _ = _run(["verify"], capsys, monkeypatch, stdin=doc)
    assert code == 0 and json.loads(out)["seed"] == 0
    code, out, _ = _run(["table1", "--format", "csv"], capsys)
    assert code == 0 and out.startswith("L,pudof")
    code, out, _ = _run(["table1"], capsys)
    assert code == 0 and json.loads(out)["problems"] == []


# The real entry point, ``sys.exit(main())`` under ``python -m coopzf.cli``,
# in fresh interpreters that import the package from this checkout.
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
}


def _coopzf(*argv: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "coopzf.cli", *argv],
        env=_SUBPROCESS_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def test_importing_the_cli_builds_no_parser():
    probe = "import coopzf.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=_SUBPROCESS_ENV, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_importing_the_package_loads_no_numpy():
    # numpy is imported by the calls that draw channels or solve beams.
    probe = "import sys, coopzf, coopzf.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=_SUBPROCESS_ENV, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


_FOOTPRINT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("coopzf.")) + ["numpy"] * ("numpy" in sys.modules)

def run(argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()

import coopzf
steps = {"package": loaded()}
from coopzf.cli import main
steps["cli"] = loaded()
doc = run(["scheme", "--wyner", "--K", "8", "--B", "1"])
run(["report"], doc)
run(["table1"])
steps["scheme, report, table1"] = loaded()
run(["verify"], doc)
steps["verify"] = loaded()
print(json.dumps(steps))
"""


def test_each_entry_point_loads_only_the_layers_it_uses():
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE], env=_SUBPROCESS_ENV, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    front = ["coopzf.assignment", "coopzf.cli", "coopzf.errors", "coopzf.schemes", "coopzf.topology"]
    assert json.loads(done.stdout) == {
        "package": [],
        "cli": front,
        "scheme, report, table1": front,
        "verify": sorted([*front, "coopzf._rank", "coopzf.zf_engine"]) + ["numpy"],
    }


def test_entry_point_pipes_scheme_into_verify():
    scheme = _coopzf("scheme", "--wyner", "--K", "8", "--B", "1")
    verify = _coopzf("verify", "--seed", "7", stdin=scheme.stdout)
    scheme.stdout.close()  # verify holds the read end now
    out, err = verify.communicate(timeout=60)
    with scheme.stderr:
        scheme_err = scheme.stderr.read()
    scheme.wait(timeout=60)
    assert (scheme.returncode, verify.returncode, err, scheme_err) == (0, 0, "", "")
    report = json.loads(out)
    assert report["pass"] is True and report["seed"] == 7


def _long_path_document(K):
    """A valid Wyner document whose first message needs an augmenting path through all its rows.

    Message 1 is sent on every transmitter and nulled at receivers 2..K,
    whose rows each take their lower transmitter, so its own row can be
    matched only by moving all of them one transmitter on.  Every later
    message ``k`` is sent on transmitter ``k`` alone and cannot be nulled
    at ``k + 1``, so the scheme is not certified.
    """
    return json.dumps(
        {
            "K": K,
            "active": list(range(1, K + 1)),
            "serving": {k: k for k in range(1, K + 1)},
            "cancel_at": {1: list(range(2, K + 1)), **{k: [k + 1] for k in range(2, K)}, K: []},
            "topology": {"kind": "wyner", "K": K, "params": {}, "hears": [[1], *([j - 1, j] for j in range(2, K + 1))]},
            "transmit_sets": [list(range(1, K + 1)), *([k] for k in range(2, K + 1))],
        }
    )


def test_certify_lower_bound_follows_a_path_through_every_user():
    certify = _coopzf("certify", "--lower-bound", stdin=subprocess.PIPE)
    out, err = certify.communicate(_long_path_document(1_500), timeout=60)
    assert (certify.returncode, json.loads(out)) == (1, {"certified": False, "active": 1_500, "K": 1_500})
    assert "Traceback" not in err and "RecursionError" not in err


@pytest.mark.parametrize(
    ("document", "code"),
    [("not json", 2), (_DROPPED_CANCELLATION, 1)],
    ids=["not-json", "dropped-cancellation"],
)
def test_entry_point_exit_codes(document, code):
    verify = _coopzf("verify", stdin=subprocess.PIPE)
    out, err = verify.communicate(document, timeout=60)
    assert verify.returncode == code
    if code == 2:
        assert (out, err.startswith("error: malformed")) == ("", True)
    else:
        assert json.loads(out)["pass"] is False
