"""Graphviz DOT emission: machines as nested clusters, stages as nodes,
solid flow edges, dashed trigger edges; behavior graphs as plain
digraphs.  Output is deterministic so it can be snapshot-tested."""

from __future__ import annotations

from .behavior import BehaviorGraph
from .exprs import quote
from .model import Machine, StageRef, TMModel, link


def _node_id(ref: StageRef) -> str:
    return quote(str(ref))


def _emit_machine(machine: Machine, prefix: tuple[str, ...], out: list[str], depth: int):
    pad = "  " * (depth + 1)
    path = prefix + (machine.id,)
    out.append(f"{pad}subgraph cluster_{'_'.join(path)} {{")
    title = machine.name or machine.id
    out.append(f"{pad}  label={quote(title)}")
    for kind in machine.stages:
        ref = StageRef(path, kind)
        out.append(f"{pad}  {_node_id(ref)} [label={quote(kind.value)}]")
    for sub in machine.submachines:
        _emit_machine(sub, path, out, depth + 1)
    out.append(f"{pad}}}")


def _edge_label(thing: str | None, label: str | None) -> str | None:
    if thing and label:
        return f"{thing} ({label})"
    return thing or label


def model_to_dot(model: TMModel, name: str = "model") -> str:
    linked = link(model).require()
    out = [f"digraph {quote(name)} {{", "  compound=true", "  node [shape=box]"]
    for machine in linked.roots:
        _emit_machine(machine, (), out, 0)
    for arc in linked.flows:
        attrs = []
        label = _edge_label(arc.thing, arc.label)
        if label:
            attrs.append(f"label={quote(label)}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f"  {_node_id(arc.source)} -> {_node_id(arc.target)}{suffix}")
    for arc in linked.triggers:
        attrs = ["style=dashed"]
        label = _edge_label(None, arc.label)
        if arc.guard:
            label = f"{label} when {arc.guard}" if label else f"when {arc.guard}"
        if label:
            attrs.append(f"label={quote(label)}")
        out.append(f"  {_node_id(arc.source)} -> {_node_id(arc.target)} [{', '.join(attrs)}]")
    out.append("}")
    return "\n".join(out) + "\n"


def behavior_to_dot(graph: BehaviorGraph) -> str:
    out = ['digraph "behavior" {', "  node [shape=ellipse]"]
    initial = set(graph.initial)
    for event in graph.events:
        attrs = []
        if event.interval is not None:
            # Event ids are plain identifiers, so no quoting is needed and
            # the \n stays a DOT line break.
            attrs.append(
                f'label="{event.id}\\n[{event.interval.start},'
                f'+{event.interval.duration}]"'
            )
        if event.id in initial:
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f"  {quote(event.id)}{suffix}")
    for src, dst in graph.edges:
        out.append(f"  {quote(src)} -> {quote(dst)}")
    out.append("}")
    return "\n".join(out) + "\n"
