"""Static semantic checks for a parsed model.

Errors cover broken structure (unresolved references, illegal flow
adjacency, duplicate stages, self-triggers, guards naming undeclared
attributes or mixing int and text).  Statically permitted
contradictions, such as a pair of opposing flows over one machine pair,
are warnings only: the dynamic description resolves them with events.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, ValidationReport, error, warning
from .exprs import ExprSyntaxError, Lit, Name, names
from .model import (
    FlowArc,
    Linked,
    ModelError,
    StageKind,
    StageRef,
    TMModel,
    TriggerArc,
    flow_allowed,
    link,
)


def _check_duplicates(model: TMModel, linked: Linked, report: ValidationReport) -> None:
    """Machines as linked, things and arcs as declared (a sugared arc once)."""
    seen_machines: set[str] = set()
    for _, machine in linked.machines:
        if machine.id in seen_machines:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate machine id '{machine.id}'",
                      machine.span)
            )
        seen_machines.add(machine.id)
        dupes = {k for k in machine.stages if machine.stages.count(k) > 1}
        for kind in sorted(dupes, key=lambda k: k.value):
            report.diagnostics.append(
                error(
                    "DUPLICATE_STAGE",
                    f"machine '{machine.id}' declares {kind.value} more than once",
                    machine.span,
                )
            )
    seen_things: set[str] = set()
    for thing in model.things:
        if thing.name in seen_things:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate thing '{thing.name}'", thing.span)
            )
        seen_things.add(thing.name)
    seen_arcs: set[str] = set()
    for arc in model.arcs():
        if arc.id in seen_arcs:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate arc id '{arc.id}'", arc.span)
            )
        seen_arcs.add(arc.id)


_Scopes = dict[str | None, tuple[dict[str, str | None], str]]


def _guard_scopes(model: TMModel) -> _Scopes:
    """What a guard may name, by the thing its arc carries: the attribute
    kinds of the thing's first declaration, and the scope as a message
    names it.  Under ``None``, for an arc of no declared thing, every
    thing's attributes, of no known kind."""
    anywhere: dict[str, str | None] = {}
    scopes: _Scopes = {None: (anywhere, "any declared thing")}
    for thing in model.things:
        anywhere.update(dict.fromkeys(name for name, _ in thing.attributes))
        scopes.setdefault(thing.name, (dict(thing.attributes), f"thing '{thing.name}'"))
    return scopes


def _check_guard(model: TMModel, arc, scopes: _Scopes, report: ValidationReport) -> None:
    if arc.guard is None:
        return
    guard = model._exprs["guard", arc.guard]
    if isinstance(guard, ExprSyntaxError):
        report.diagnostics.append(
            error("GUARD_SYNTAX", f"arc '{arc.id}': {guard}", arc.span)
        )
        return
    kinds, scope = scopes.get(getattr(arc, "thing", None), scopes[None])
    for name in sorted(names(guard).difference(kinds)):
        report.diagnostics.append(
            error(
                "UNDECLARED_ATTR",
                f"arc '{arc.id}': guard references attribute '{name}' "
                f"not declared by {scope}",
                arc.span,
            )
        )
    mixed: list[str] = []
    _kind(guard, kinds, mixed)
    for op in mixed:
        report.diagnostics.append(
            error("GUARD_TYPE",
                  f"arc '{arc.id}': operator '{op}' mixes int and text operands",
                  arc.span)
        )


def _kind(node, kinds: dict[str, str | None], mixed: list[str]) -> str | None:
    """The kind ("int" or "text") of an expression when it is known: for a
    literal, an attribute in ``kinds``, or a sum of ints.  Each ordering or
    arithmetic operator with an int and a text operand goes to ``mixed``."""
    if isinstance(node, Lit):
        return "text" if isinstance(node.value, str) else "int"
    if isinstance(node, Name):
        return kinds.get(node.ident)
    operands = {_kind(node.left, kinds, mixed), _kind(node.right, kinds, mixed)}
    if operands == {"int", "text"} and node.op not in ("=", "!="):
        mixed.append(node.op)
    return "int" if operands == {"int"} else None


def unresolved_diagnostic(arc: FlowArc | TriggerArc, exc: ModelError) -> Diagnostic:
    """The UNRESOLVED error of an arc whose end does not resolve."""
    what = "trigger" if isinstance(arc, TriggerArc) else "arc" if arc.sugared else "flow"
    return error("UNRESOLVED", f"{what} '{arc.id}': {exc}", arc.span)


def validate(model: TMModel) -> ValidationReport:
    """Full static check; never raises, returns a report."""
    report = ValidationReport()
    linked = link(model)
    _check_duplicates(model, linked, report)
    scopes = _guard_scopes(model)

    for arc, exc in linked.unresolved:
        report.diagnostics.append(unresolved_diagnostic(arc, exc))

    for arc in linked.flows:
        src, tgt = arc.source, arc.target
        same = src.machine == tgt.machine
        if not flow_allowed(src.kind, tgt.kind, same):
            where = "within one machine" if same else "across machines"
            report.diagnostics.append(
                error(
                    "ADJACENCY",
                    f"flow '{arc.id}': {src.kind.value} -> {tgt.kind.value} "
                    f"is not a legal flow {where}",
                    arc.span,
                )
            )
        _check_guard(model, arc, scopes, report)

    for arc in linked.triggers:
        if arc.source == arc.target:
            report.diagnostics.append(
                error(
                    "SELF_TRIGGER",
                    f"trigger '{arc.id}' has identical source and target {arc.source}",
                    arc.span,
                )
            )
        _check_guard(model, arc, scopes, report)

    _warn_opposing_flows(linked.flows, report)
    _warn_unreachable(linked, report)
    _warn_no_arcs(linked, report)
    return report


def _warn_opposing_flows(flows: tuple[FlowArc, ...], report: ValidationReport) -> None:
    """One warning per pair of machines with flows (of one thing) both
    ways, in the order of the displayed pair, then of the thing."""
    sources: dict[tuple[str, str, str], set[str]] = {}
    for arc in flows:
        if arc.source.machine == arc.target.machine:
            continue
        source, target = ".".join(arc.source.machine), ".".join(arc.target.machine)
        key = (min(source, target), max(source, target), arc.thing or "")
        sources.setdefault(key, set()).add(source)
    for (a, b, thing), directions in sorted(sources.items()):
        if len(directions) > 1:
            what = f" of '{thing}'" if thing else ""
            report.diagnostics.append(
                warning(
                    "OPPOSING_FLOWS",
                    f"opposing flows{what} between '{a}' and '{b}' "
                    "(statically legal; resolved dynamically by events)",
                )
            )


def _warn_unreachable(linked: Linked, report: ValidationReport) -> None:
    targets = {arc.target for arc in linked.arcs()}
    for ref in linked.stages:
        if ref.kind != StageKind.CREATE and ref not in targets:
            report.diagnostics.append(
                warning("UNREACHABLE_STAGE",
                        f"stage {ref} has no incoming arc")
            )


def _warn_no_arcs(linked: Linked, report: ValidationReport) -> None:
    touched: set[tuple[str, ...]] = set()
    for arc in linked.arcs():
        touched.add(arc.source.machine)
        touched.add(arc.target.machine)
    for path, machine in linked.machines:
        if machine.stages and path not in touched:
            report.diagnostics.append(
                warning("NO_ARCS",
                        f"machine '{machine.id}' is connected to no arcs")
            )


def reachable_stages(
    model: TMModel, roots: set[StageRef] | list[StageRef]
) -> set[StageRef]:
    """Forward closure over flow and trigger arcs from the given stages.

    The roots and every arc must resolve to stages; raises
    UnknownMachineError / StageNotDeclaredError otherwise, and ModelError
    for a root that names a machine.  Returned refs are fully qualified.
    """
    linked = link(model).require()
    frontier = [linked.stage(ref) for ref in roots]
    edges: dict[StageRef, list[StageRef]] = {}
    for arc in linked.arcs():
        edges.setdefault(arc.source, []).append(arc.target)
    seen = set(frontier)
    while frontier:
        current = frontier.pop()
        for nxt in edges.get(current, []):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen
