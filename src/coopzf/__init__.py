"""Cooperative zero-forcing over partially connected interference networks.

Build chain, grid, and hexagonal-lattice topologies; generate one-shot
zero-forcing schemes under backhaul-load constraints; verify them
numerically on random channels; search exact combinatorial oracles;
and certify upper bounds on the number of simultaneously served users.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the layer that defines it.  A layer is imported on
# the first access to one of its names, and the package never caches what
# it returns, so a name rebound in its layer is what the package hands out.
# Once imported, a layer is a package global, which spares later reads the
# import machinery.
_HOME = {
    "AvoidanceSchedule": "oracle",
    "BackhaulConverseResult": "converse",
    "BeamDesign": "zf_engine",
    "CertifiedGroup": "converse",
    "ChannelRealization": "zf_engine",
    "CooperationMetrics": "assignment",
    "CooperativeWitness": "oracle",
    "CoopZfError": "errors",
    "DofReport": "schemes",
    "GroupCertificate": "converse",
    "HexLattice": "topology",
    "InvalidParameterError": "errors",
    "MessageAssignment": "assignment",
    "NetworkTopology": "topology",
    "PreconditionViolationError": "errors",
    "ResourceLimitError": "errors",
    "SolverFailureError": "errors",
    "UnsupportedError": "errors",
    "VerificationReport": "zf_engine",
    "ZfScheme": "schemes",
    "algorithm1_certify": "converse",
    "appendix_receiver_set": "converse",
    "backhaul_converse": "converse",
    "build_hexagonal": "topology",
    "build_locally_connected": "topology",
    "build_two_dim": "topology",
    "build_wyner": "topology",
    "certify_lower_bound": "oracle",
    "check_local_cooperation": "assignment",
    "decompose_hexagonal_to_linear": "schemes",
    "design_beams": "zf_engine",
    "dof_report": "schemes",
    "hexagonal_cooperative_scheme": "schemes",
    "hexagonal_coset_scheme": "schemes",
    "locally_connected_scheme": "schemes",
    "max_activation_for_assignment": "oracle",
    "max_avoidance_cooperative": "oracle",
    "max_avoidance_m1": "oracle",
    "metrics": "assignment",
    "reconstructibility_check": "converse",
    "sample_channels": "zf_engine",
    "schedule_assignment": "converse",
    "scheme_from_json": "schemes",
    "scheme_to_json": "schemes",
    "table1_row": "schemes",
    "table1_scheme": "schemes",
    "topology_from_dict": "topology",
    "triangle_state_bound": "converse",
    "two_dim_scheme": "schemes",
    "validate_certificate": "converse",
    "validate_scheme": "schemes",
    "validate_schedule": "oracle",
    "verify": "zf_engine",
    "wyner_backhaul_scheme": "schemes",
}
_LAYERS = frozenset(_HOME.values()) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is not None:
        return getattr(globals().get(layer) or import_module(f"{__name__}.{layer}"), name)
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
