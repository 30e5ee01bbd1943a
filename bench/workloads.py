"""The four benchmark workloads and the check behind every operation.

Each workload turns ``--seed`` and a pass number into one list of
operations (a pass).  Every pass has the same instance sizes and the same
mix; what the seed draws (channels, assignments, order) is drawn afresh
for each pass, so a run sees many draws, and pass k repeats exactly in
every run with the same seed, counts included.

Operations call the library through the package namespace at call time
(``lib.verify``), so the tracer's wrappers see them.  An operation
returns normally when its answer is right and raises :class:`CheckFailed`
when it is wrong; a probe (an operation that must be rejected) raises it
when the library accepts.  Inputs that are not the point of a workload
(lattices, assignments fed to the converse, documents piped into the CLI)
are built when the pass is generated, before it is timed or traced.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify-sweep", "exact-search", "certify-sweep", "cli-pipe")

TABLE1_PUDOF = {2: Fraction(2, 3), 3: Fraction(3, 5), 4: Fraction(5, 9), 5: Fraction(11, 21), 6: Fraction(1, 2)}
M1_HEX = {4: 7, 5: 12, 6: 15}
COOP_B1 = {("wyner", 8): 6, ("wyner", 10): 7, ("lc", 8): 5, ("lc", 10): 6}

# Probes that the library did not reject when this benchmark was written,
# by operation kind.  They count as failed; listing them here keeps them
# apart from regressions, which set "correct" to false.
KNOWN_FAILURES = {
    "verify-sweep": {
        "probe_serving_outside_T": "verify accepts a beam served from outside T_i",
    },
    "cli-pipe": {
        "probe_stdin_empty_object": "verify on '{}' raises KeyError instead of exiting 2",
        "probe_stdin_not_json": "verify on 'not json' raises JSONDecodeError instead of exiting 2",
    },
}


class CheckFailed(Exception):
    """An operation gave a wrong answer, or a probe was not rejected."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], None]
    heavy: bool = False  # skipped during warm-up


def build(name: str, lib, seed: int, pass_index: int, tracer) -> list[Op]:
    """Generate pass ``pass_index`` of a workload; same arguments, same inputs."""
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    makers = {
        "verify-sweep": _verify_sweep,
        "exact-search": _exact_search,
        "certify-sweep": _certify_sweep,
        "cli-pipe": _cli_pipe,
    }
    ops = makers[name](lib, rng, tracer)
    rng.shuffle(ops)
    return ops


def warmup(ops: list[Op]) -> list[Op]:
    """The first light operation of each kind."""
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen and not op.heavy:
            seen.add(op.kind)
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# verify-sweep: numerical claims at scale
# ---------------------------------------------------------------------------


def _numeric_path(lib, topology, assignment, scheme, channel_seed):
    """Document round trip, channel draw, beam design and verify, as `coopzf verify` runs them."""
    document = lib.scheme_to_json(scheme, topology=topology, assignment=assignment)
    scheme2, topology2, assignment2 = lib.scheme_from_json(document)
    channels = lib.sample_channels(topology2, channel_seed)
    beams = lib.design_beams(topology2, channels, assignment2, scheme2)
    return scheme2, topology2, assignment2, lib.verify(topology2, channels, scheme2, beams)


def _verify_op(lib, kind, make, pudof, load, channel_seed, reverse, heavy=False) -> Op:
    def run():
        topology, (assignment, scheme) = make()
        if reverse:  # the same plan, solved by the dense route
            scheme.cancel_at = {i: tuple(reversed(c)) for i, c in scheme.cancel_at.items()}
        problems = lib.validate_scheme(topology, assignment, scheme)
        check(problems == [], f"validate_scheme: {problems[:2]}")
        check(lib.metrics(assignment).B == load == scheme.declared_backhaul, "load differs from the declared fraction")
        scheme2, topology2, assignment2, report = _numeric_path(lib, topology, assignment, scheme, channel_seed)
        check(
            scheme2 == scheme
            and topology2.hears == topology.hears
            and assignment2.transmit_sets == assignment.transmit_sets,
            "document round trip changed the scheme",
        )
        check(report.passed, f"verify failed with residual {report.max_residual:.3g}")
        dof = lib.dof_report(scheme2, assignment2)
        check(dof.per_user_dof == pudof == scheme.declared_pudof, f"puDoF {dof.per_user_dof}, expected {pudof}")
        check(dof.backhaul == load and report.dof == dof.achieved_dof, "dof_report disagrees")

    return Op(kind, run, heavy)


def _rejected_by_verify(lib, topology, assignment, scheme, channel_seed) -> bool:
    try:
        report = _numeric_path(lib, topology, assignment, scheme, channel_seed)[3]
    except lib.CoopZfError:
        return True
    return not report.passed


def _verify_sweep(lib, rng, tracer) -> list[Op]:
    def seed():
        return rng.randrange(2**31)

    def wyner(K, B):
        return lambda: (lib.build_wyner(K), lib.wyner_backhaul_scheme(K, B))

    # Sizes and routes are fixed so that every seed does the same work; the
    # seed draws the channels and the order.  Three of the sixteen schemes
    # reverse their cancellation orders, which sends design_beams down its
    # dense route.  Table1 L=4 runs three times and Wyner K=720 twice, so
    # that the median and the p90 fall among copies of one operation, not
    # between two kinds.
    specs = []
    for B, K in ((1, 240), (1, 480), (2, 240), (2, 480), (3, 240), (3, 720), (3, 720)):
        dense = (B, K) in ((2, 480), (3, 240))
        specs.append((f"wyner_K{K}_B{B}", wyner(K, B), Fraction(4 * B - 1, 4 * B), Fraction(B), dense, K >= 700))
    for L, pudof in TABLE1_PUDOF.items():
        K_min = lib.table1_row(L)["K_min"]
        K = K_min * round(500 / K_min)
        make = lambda K=K, L=L: (lib.build_locally_connected(K, L), lib.table1_scheme(K, L))
        specs.append((f"table1_L{L}", make, pudof, Fraction(1), L == 4, False))
        if L == 4:
            specs += [(f"table1_L{L}", make, pudof, Fraction(1), False, False)] * 2
    for K in (576, 1296):
        make = lambda K=K: (lib.build_two_dim(K), lib.two_dim_scheme(K))
        specs.append((f"two_dim_K{K}", make, Fraction(5, 9), Fraction(1), False, K > 1000))
    ops = [
        _verify_op(lib, kind + ("_dense" if dense else ""), make, pudof, load, seed(), dense, heavy)
        for kind, make, pudof, load, dense, heavy in specs
    ]

    K = 240
    channel_drop, channel_out = seed(), seed()

    def dropped_cancellation():
        topology = lib.build_wyner(K)
        assignment, scheme = lib.wyner_backhaul_scheme(K, 2)
        m = min(i for i in scheme.active_messages if scheme.cancel_at[i])
        scheme.cancel_at[m] = scheme.cancel_at[m][:-1]
        check(_rejected_by_verify(lib, topology, assignment, scheme, channel_drop), "verify accepted a dropped cancellation")

    def serving_outside_T():
        topology = lib.build_wyner(K)
        assignment, scheme = lib.wyner_backhaul_scheme(K, 1)
        scheme.serving[K] = K  # T_K is {K-1}
        check(
            _rejected_by_verify(lib, topology, assignment, scheme, channel_out),
            f"verify accepted message {K} served by transmitter {K} outside T={{{K - 1}}}",
        )

    ops.append(Op("probe_dropped_cancellation", dropped_cancellation))
    ops.append(Op("probe_serving_outside_T", serving_outside_T))
    return ops


# ---------------------------------------------------------------------------
# exact-search: exact optima on a fixed ladder with known answers
# ---------------------------------------------------------------------------


def _exact_search(lib, rng, tracer) -> list[Op]:
    ops: list[Op] = []

    for n, copies in ((4, 3), (5, 3), (6, 1)):
        topology = lib.build_hexagonal(n)[0]

        def m1(topology=topology, expected=M1_HEX[n]):
            value, schedule = lib.max_avoidance_m1(topology)
            check(value == expected == schedule.value, f"m1 value {value}, expected {expected}")
            check(lib.validate_schedule(topology, schedule) == [], "m1 witness is not a valid schedule")

        ops += [Op(f"m1_hex{n}", m1, heavy=n == 6)] * copies

    for (family, K), copies in ((("wyner", 8), 3), (("wyner", 10), 5), (("lc", 8), 2), (("lc", 10), 1)):
        topology = lib.build_wyner(K) if family == "wyner" else lib.build_locally_connected(K, 2)

        def coop(topology=topology, expected=COOP_B1[family, K]):
            value, witness = lib.max_avoidance_cooperative(topology, 1)
            check(value == expected == len(witness.active), f"cooperative value {value}, expected {expected}")
            check(lib.metrics(witness.assignment).B <= 1, "witness exceeds the backhaul budget")
            served, _ = lib.max_activation_for_assignment(topology, witness.assignment)
            check(served == value, f"witness assignment serves {served}, not {value}")

        ops += [Op(f"coop_{family}{K}", coop, heavy=K == 10)] * copies

    for K, B in ((8, 1), (12, 1), (16, 1), (20, 1), (24, 1), (8, 2), (16, 2), (24, 2), (12, 3), (24, 3)):
        topology = lib.build_wyner(K)
        assignment, scheme = lib.wyner_backhaul_scheme(K, B)

        def activation(topology=topology, assignment=assignment, expected=len(scheme.active_messages)):
            value, witness = lib.max_activation_for_assignment(topology, assignment)
            check(value == expected == len(witness.active), f"activation {value}, expected {expected}")

        ops.append(Op(f"activation_wyner{K}_B{B}", activation))

    cases = [(f"wyner{K}_B{B}", lib.build_wyner(K), *lib.wyner_backhaul_scheme(K, B)) for K, B in ((4, 1), (8, 1), (8, 2))]
    for n in (3, 4, 5):
        topology, lattice = lib.build_hexagonal(n)
        cases.append((f"hex_coset{n}", topology, *lib.hexagonal_coset_scheme(lattice)))
    for label, topology, assignment, scheme in cases:

        def lower_bound(topology=topology, assignment=assignment, scheme=scheme):
            check(lib.certify_lower_bound(topology, scheme, assignment) is True, "certify_lower_bound refused")

        ops.append(Op(f"lower_bound_{label}", lower_bound))

    topology, lattice = lib.build_hexagonal(6)

    def hex_coop():
        assignment, scheme = lib.hexagonal_cooperative_scheme(lattice)
        half = Fraction(1, 2)
        check(scheme.declared_pudof == half == Fraction(len(scheme.active_messages), topology.K), "puDoF is not 1/2")
        check(lib.metrics(assignment).B == 1, "load is not 1")
        check(lib.validate_scheme(topology, assignment, scheme) == [], "hexagonal cooperative scheme is invalid")

    ops += [Op("hex_coop_n6", hex_coop)] * 3
    return ops


# ---------------------------------------------------------------------------
# certify-sweep: certified upper bounds
# ---------------------------------------------------------------------------


def _single_tx_assignment(lib, lattice, rng):
    sets = {}
    for i in sorted(lattice.coords):
        roll = rng.random()
        if roll < 0.35:
            sets[i] = frozenset()
        elif roll < 0.6:
            sets[i] = frozenset({i})
        else:
            sets[i] = frozenset({rng.choice(sorted(lattice.neighbors[i] | {i}))})
    return lib.MessageAssignment(K=len(lattice.coords), transmit_sets=sets)


def _budgeted_chain_assignment(lib, K, B, rng):
    """Transmit sets near each message on a chain, total load at most B*K."""
    budget, sets = B * K, {}
    for i in range(1, K + 1):
        lo, hi = max(1, i - 2 * B), min(K, i + 2 * B - 1)
        size = min(rng.randint(0, 2 * B), budget, hi - lo + 1)
        budget -= size
        sets[i] = frozenset(rng.sample(range(lo, hi + 1), size))
    return lib.MessageAssignment(K=K, transmit_sets=sets)


def _greedy_schedule(lib, topology, rng):
    """A seeded maximal interference-free schedule, built without the oracle."""
    pairs = [(r, t) for r in range(1, topology.K + 1) for t in sorted(topology.hears[r])]
    rng.shuffle(pairs)
    hears, chosen = topology.hears, []
    for r, t in pairs:
        if all(r != r2 and t != t2 and t2 not in hears[r] and t not in hears[r2] for r2, t2 in chosen):
            chosen.append((r, t))
    return lib.AvoidanceSchedule(pairs=frozenset(chosen), value=len(chosen))


def _certify_sweep(lib, rng, tracer) -> list[Op]:
    ops: list[Op] = []
    lattices = {n: lib.build_hexagonal(n) for n in (5, 6, 9, 12)}

    # 3, 9 and 14 assignments on hex n=6, 9, 12: the median latency then
    # falls among the n=9 certificates, not in the gap below them.
    for n, copies in ((6, 3), (9, 9), (12, 14)):
        topology, lattice = lattices[n]
        for _ in range(copies):
            assignment = _single_tx_assignment(lib, lattice, rng)

            def groups(lattice=lattice, assignment=assignment, K=topology.K):
                certificate = lib.algorithm1_certify(lattice, assignment)
                problems = lib.validate_certificate(lattice, assignment, certificate)
                check(problems == [], f"audit: {problems[:2]}")
                check(certificate.certified_bound <= K, "bound exceeds K")

            ops.append(Op(f"groups_hex{n}", groups))

    for B, K in ((1, 240), (2, 480), (3, 720), (1, 960), (2, 960)):
        for from_scheme in (True, False):
            if from_scheme:
                assignment, scheme = lib.wyner_backhaul_scheme(K, B)
                expected = len(scheme.active_messages)
            else:
                assignment, expected = _budgeted_chain_assignment(lib, K, B, rng), None
            topology = lib.build_wyner(K)

            def scan(topology=topology, assignment=assignment, B=B, K=K, expected=expected):
                result = lib.backhaul_converse(assignment, B)
                check(result.bound == K - result.A_bar_size == min(result.scanned.values()), "inconsistent scan")
                check(sorted(result.scanned) == list(range(2 * B)), "scan skipped a cutoff")
                if expected is not None:
                    check(result.slack == 0 and result.bound == expected, f"block scheme scan not tight: {result.slack}")
                for M in range(2 * B):
                    A, reduced = lib.appendix_receiver_set(assignment, M)
                    check(lib.reconstructibility_check(topology, reduced, A), f"cutoff {M} not reconstructible")

            ops.append(Op(f"backhaul_{'scheme' if from_scheme else 'random'}_K{K}_B{B}", scan))

    schedules = [(n, _greedy_schedule(lib, lattices[n][0], rng)) for n in (5, 9)]
    for n in (6, 12):
        _, coset = lib.hexagonal_coset_scheme(lattices[n][1])
        pairs = frozenset((i, i) for i in coset.active_messages)
        schedules.append((n, lib.AvoidanceSchedule(pairs=pairs, value=len(pairs))))
    for n, schedule in schedules:
        topology, lattice = lattices[n]
        sets = {i: frozenset() for i in range(1, topology.K + 1)}
        sets.update({r: frozenset({t}) for r, t in schedule.pairs})
        induced = lib.MessageAssignment(K=topology.K, transmit_sets=sets)

        def states(lattice=lattice, schedule=schedule, induced=induced):
            certificate = lib.triangle_state_bound(lattice, schedule)
            check(certificate.certified_bound >= schedule.value, "state bound is below the schedule it covers")
            problems = lib.validate_certificate(lattice, induced, certificate)
            check(problems == [], f"audit: {problems[:2]}")

        ops.append(Op("states", states))
    return ops


# ---------------------------------------------------------------------------
# cli-pipe: the user-facing pipes, in process
# ---------------------------------------------------------------------------


def run_cli(lib, argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` with stdin and stdout swapped for strings.

    An exception escaping ``main`` maps to exit code 1, as the interpreter
    would report it; the third item names the exception.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    escaped = ""
    try:
        code = lib.cli.main(argv)
    except Exception as exc:  # the benchmark stands in for the interpreter's top level
        code, escaped = 1, type(exc).__name__
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, escaped


def _cli_pipe(lib, rng, tracer) -> list[Op]:
    def expect_exit(code, escaped, expected, what):
        if code != expected:
            tracer.count("cli.exit_mismatch")
            raise CheckFailed(f"{what}: exit {code}{' (' + escaped + ')' if escaped else ''}, expected {expected}")

    def scheme_doc(args):
        code, doc, escaped = run_cli(lib, ["scheme", *args])
        expect_exit(code, escaped, 0, "scheme")
        return doc

    def wyner(K, B):
        return ["--wyner", "--K", str(K), "--B", str(B)], Fraction(4 * B - 1, 4 * B), Fraction(B), K

    def table1(L):
        K = lib.table1_row(L)["K_min"] * 2
        return ["--table1", "--K", str(K), "--L", str(L)], TABLE1_PUDOF[L], Fraction(1), K

    def verify_op(spec, heavy=False):
        args, pudof, _, K = spec
        label = "_".join(arg.lstrip("-") for arg in args)
        seed = rng.randrange(1000)

        def run():
            code, out, escaped = run_cli(lib, ["verify", "--seed", str(seed)], scheme_doc(args))
            expect_exit(code, escaped, 0, "verify")
            obj = json.loads(out)
            check(obj["pass"] is True and obj["seed"] == seed, "verify did not pass")
            check(obj["dof"] == str(pudof) and obj["active"] == pudof * K, f"verify reports {obj['dof']}")

        return Op(f"pipe_verify_{label}", run, heavy)

    def report_op(spec):
        args, pudof, load, K = spec

        def run():
            code, out, escaped = run_cli(lib, ["report"], scheme_doc(args))
            expect_exit(code, escaped, 0, "report")
            obj = json.loads(out)
            check(obj["per_user_dof"] == str(pudof) and obj["backhaul"] == str(load), "report fractions differ")
            check(obj["achieved_dof"] == pudof * K, "report count differs")

        return Op("pipe_report", run)

    def certify_op(K, B):
        def run():
            code, out, escaped = run_cli(lib, ["certify", "--backhaul", "--B", str(B)], scheme_doc(wyner(K, B)[0]))
            expect_exit(code, escaped, 0, "certify --backhaul")
            obj = json.loads(out)
            check(obj["bound"] == Fraction(4 * B - 1, 4 * B) * K and obj["slack"] == "0", "backhaul scan not tight")

        return Op("pipe_certify_backhaul", run)

    # Sizes are fixed; the seed draws the verify seeds, the assignments
    # piped into certify --groups, and the order.  The three largest verify
    # pipes are the slowest tenth of a pass, so op_p90_ms falls among them,
    # and the median falls among the three identical backhaul pipes.
    ops = [
        verify_op(wyner(48, 1)),
        verify_op(wyner(144, 1)),
        verify_op(wyner(120, 2)),
        verify_op(wyner(240, 2), heavy=True),
        verify_op(wyner(216, 3), heavy=True),
        verify_op(wyner(240, 3), heavy=True),
        verify_op((["--lc", "--K", "60", "--L", "2", "--M", "2"], Fraction(2, 3), Fraction(1), 60)),
        verify_op(table1(4)),
        verify_op((["--two-dim", "--K", "144"], Fraction(5, 9), Fraction(1), 144)),
        verify_op((["--hex-coop", "--n", "6"], Fraction(1, 2), Fraction(1), 36)),
        verify_op((["--hex-coset", "--n", "9"], Fraction(1, 3), Fraction(1, 3), 81)),
        report_op(wyner(192, 3)),
        report_op(table1(3)),
        report_op((["--hex-coset", "--n", "6"], Fraction(1, 3), Fraction(1, 3), 36)),
        report_op((["--lc", "--K", "56", "--L", "3", "--M", "2"], Fraction(4, 7), Fraction(6, 7), 56)),
    ] + [certify_op(160, 2)] * 3
    lattice = lib.build_hexagonal(6)[1]
    for _ in range(3):
        document = _single_tx_assignment(lib, lattice, rng).to_json()

        def groups(document=document):
            code, out, escaped = run_cli(lib, ["certify", "--groups", "--n", "6"], document)
            expect_exit(code, escaped, 0, "certify --groups")
            obj = json.loads(out)
            check(obj["problems"] == [] and obj["certified_bound"] <= 36, "group certificate rejected")

        ops.append(Op("pipe_certify_groups", groups))

    def oracle():
        code, out, escaped = run_cli(lib, ["oracle", "--m1", "--hex", "--n", "4"])
        expect_exit(code, escaped, 0, "oracle --m1")
        obj = json.loads(out)
        check(obj["value"] == 7 == len(obj["pairs"]), "m1 value on hex n=4 is not 7")
        check(obj["interior"]["served"] + obj["boundary"]["served"] == 7, "service breakdown does not add up")

    def table():
        code, out, escaped = run_cli(lib, ["table1"])
        expect_exit(code, escaped, 0, "table1")
        obj = json.loads(out)
        check(obj["problems"] == [], "table1 reports mismatches")
        check([r["pudof"] for r in obj["rows"]] == [str(f) for f in TABLE1_PUDOF.values()], "table1 rows differ")

    ops += [Op("pipe_oracle_m1", oracle), Op("pipe_table1", table)]

    for kind, text in (("probe_stdin_empty_object", "{}"), ("probe_stdin_not_json", "not json")):

        def malformed(text=text):
            code, _, escaped = run_cli(lib, ["verify"], text)
            expect_exit(code, escaped, 2, f"verify on {text!r}")

        ops.append(Op(kind, malformed))
    return ops
