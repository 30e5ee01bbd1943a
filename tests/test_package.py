"""The package surface: what ``coopzf`` exports."""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

import coopzf


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(coopzf.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in coopzf.__all__ if not hasattr(coopzf, name)]
    assert missing == []


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
    }


_CALLS = (
    "certify", "audit", "state-bound", "cooperative", "m1",
    "activation", "lower-bound", "beams-verify", "backhaul", "walk",
)


@pytest.mark.parametrize("name", _CALLS)
def test_public_calls_leave_no_cyclic_garbage(name):
    # Reference counting frees everything a call made; the cyclic
    # collector finds nothing to do.
    call = _public_calls()[name]
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
