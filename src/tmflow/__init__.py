"""Executable flow-machine diagrams.

Parse a textual model of machines built from the five stages (Create,
Process, Release, Receive, Transfer), statically validate the flows,
group stages into regions and events, infer or check a behavior graph,
run token simulations, and segment the resulting traces back into event
occurrences for conformance checking.

Only the modules that ``tm check`` runs are imported with the package.
The names of ``simulate`` (the simulator, its scenario and trace types,
segmentation and conformance) load it on first access.
"""

import importlib
import sys
from types import ModuleType

from .behavior import (
    BehaviorGraph,
    BoundTooLarge,
    Event,
    Interval,
    NoInitialEvents,
    Region,
    RegionCheckFailed,
    Subdiagram,
    check_regions,
    chronologies,
    enumerate_subdiagrams,
    infer_behavior,
    validate_behavior,
)
from .diagnostics import Diagnostic, SourceSpan, ValidationReport
from .exprs import ExprSyntaxError, GuardTypeError
from .model import (
    CROSS_MACHINE_FLOWS,
    SAME_MACHINE_FLOWS,
    FlowArc,
    Machine,
    ModelError,
    StageKind,
    StageNotDeclaredError,
    StageRef,
    ThingDecl,
    TMModel,
    TriggerArc,
    UnknownMachineError,
    desugar,
    flow_allowed,
    normalize_ref,
    resolve,
)
from .parser import (
    Document,
    TMParseError,
    merge_documents,
    parse,
    parse_model,
    parse_scenario,
    parse_with_diagnostics,
    serialize,
)
from .validate import reachable_stages, validate

__version__ = "0.1.0"

__all__ = [
    "BehaviorGraph",
    "BoundTooLarge",
    "CROSS_MACHINE_FLOWS",
    "Diagnostic",
    "Document",
    "Event",
    "ExprSyntaxError",
    "FlowArc",
    "GuardTypeError",
    "Interval",
    "Machine",
    "ModelError",
    "NoInitialEvents",
    "Occurrence",
    "Region",
    "RegionCheckFailed",
    "SAME_MACHINE_FLOWS",
    "Scenario",
    "Segmentation",
    "SourceSpan",
    "StageKind",
    "StageNotDeclaredError",
    "StageRef",
    "Subdiagram",
    "ThingDecl",
    "TMModel",
    "TMParseError",
    "Token",
    "TokenSeed",
    "Trace",
    "TraceMeta",
    "TraceRecord",
    "TriggerArc",
    "UnknownMachineError",
    "UnseededCreateError",
    "ValidationReport",
    "check_regions",
    "chronologies",
    "conformance",
    "desugar",
    "enumerate_subdiagrams",
    "flow_allowed",
    "infer_behavior",
    "merge_documents",
    "normalize_ref",
    "parse",
    "parse_model",
    "parse_scenario",
    "parse_with_diagnostics",
    "reachable_stages",
    "resolve",
    "segment",
    "serialize",
    "simulate",
    "validate",
    "validate_behavior",
]

# The names the imports above do not bind: ``__getattr__`` serves them
# from ``simulate``, which loads on first access.
_SIMULATE_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not ``from . import simulate``: that would look the name up here again.
    value = getattr(importlib.import_module(__name__ + ".simulate"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATE_NAMES)


class _Package(ModuleType):
    """The package, whose ``simulate`` stays the function: importing the
    submodule ``tmflow.simulate`` would otherwise bind its name here to
    the module."""

    def __setattr__(self, name: str, value) -> None:
        if name == "simulate" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
