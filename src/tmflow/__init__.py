"""Executable flow-machine diagrams.

Parse a textual model of machines built from the five stages (Create,
Process, Release, Receive, Transfer), statically validate the flows,
group stages into regions and events, infer or check a behavior graph,
run token simulations, and segment the resulting traces back into event
occurrences for conformance checking.

The package imports every module but ``cli`` and the two output
formats, ``jsonio`` and ``dot``.
"""

from .behavior import (
    BehaviorGraph,
    BoundTooLarge,
    Event,
    Interval,
    Region,
    RegionCheckFailed,
    Subdiagram,
    check_regions,
    enumerate_subdiagrams,
    infer_behavior,
    validate_behavior,
)
from .diagnostics import Diagnostic, SourceSpan, ValidationReport
from .exprs import ExprSyntaxError, GuardTypeError
from .model import (
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
)
from .parser import (
    Document,
    TMParseError,
    merge_documents,
    parse,
    parse_scenario,
    parse_with_diagnostics,
    serialize,
)
# The function shadows the loaded submodule; re-importing it rebinds nothing.
from .simulate import (
    Occurrence,
    Scenario,
    Segmentation,
    Token,
    TokenSeed,
    Trace,
    TraceMeta,
    TraceRecord,
    UnseededCreateError,
    conformance,
    segment,
    simulate,
)
from .validate import reachable_stages, validate

__version__ = "0.1.0"

__all__ = [
    "BehaviorGraph",
    "BoundTooLarge",
    "Diagnostic",
    "Document",
    "Event",
    "ExprSyntaxError",
    "FlowArc",
    "GuardTypeError",
    "Interval",
    "Machine",
    "ModelError",
    "Occurrence",
    "Region",
    "RegionCheckFailed",
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
    "conformance",
    "desugar",
    "enumerate_subdiagrams",
    "flow_allowed",
    "infer_behavior",
    "merge_documents",
    "normalize_ref",
    "parse",
    "parse_scenario",
    "parse_with_diagnostics",
    "reachable_stages",
    "segment",
    "serialize",
    "simulate",
    "validate",
    "validate_behavior",
]
