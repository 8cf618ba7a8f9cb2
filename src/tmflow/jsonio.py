"""JSON export of models, region sets, behavior graphs, reports and
traces, and import of traces.  All payloads carry a top-level ``schema: 1``
marker; traces use JSON lines (header line, then one record per line)."""

from __future__ import annotations

import json

from .behavior import BehaviorGraph
from .diagnostics import ValidationReport
from .model import FlowArc, Machine, StageKind, StageRef, TMModel, TriggerArc
from .simulate import Token, Trace, TraceMeta, TraceRecord

SCHEMA = 1


class JSONFormatError(Exception):
    pass


# -- encoding ----------------------------------------------------------------

def _ref(ref: StageRef) -> dict:
    return {
        "machine": list(ref.machine),
        "kind": ref.kind.value if ref.kind else None,
    }


def _machine(machine: Machine) -> dict:
    return {
        "id": machine.id,
        "name": machine.name,
        "stages": [kind.value for kind in machine.stages],
        "submachines": [_machine(sub) for sub in machine.submachines],
    }


def _arc(arc: FlowArc | TriggerArc) -> dict:
    data = {
        "id": arc.id,
        "source": _ref(arc.source),
        "target": _ref(arc.target),
        "guard": arc.guard,
        "label": arc.label,
        "auto_id": arc.auto_id,
    }
    if isinstance(arc, FlowArc):
        data["thing"] = arc.thing
    return data


def model_to_obj(model: TMModel) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "model",
        "things": [
            {"name": t.name, "attributes": [list(a) for a in t.attributes]}
            for t in model.things
        ],
        "machines": [_machine(m) for m in model.machines],
        "flows": [_arc(a) for a in model.flows],
        "triggers": [_arc(a) for a in model.triggers],
    }


def regions_to_obj(regions) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "regions",
        "regions": [
            {
                "id": r.id,
                "label": r.label,
                "stages": [_ref(ref) for ref in sorted(r.body.stages, key=StageRef.sort_key)],
                "arcs": sorted(r.body.arcs),
            }
            for r in regions
        ],
    }


def graph_to_obj(graph: BehaviorGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "behavior",
        "events": [
            {
                "id": e.id,
                "region": e.region,
                "interval": (
                    [e.interval.start, e.interval.duration] if e.interval else None
                ),
            }
            for e in graph.events
        ],
        "edges": [list(edge) for edge in graph.edges],
        "initial": list(graph.initial),
    }


def report_to_obj(report: ValidationReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "report",
        "ok": report.ok,
        "diagnostics": [
            {
                "severity": d.severity,
                "code": d.code,
                "message": d.message,
                "span": (
                    {
                        "line": d.span.line,
                        "column": d.span.column,
                        "length": d.span.length,
                    }
                    if d.span
                    else None
                ),
            }
            for d in report.diagnostics
        ],
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def trace_to_jsonl(trace: Trace) -> str:
    header = {
        "schema": SCHEMA,
        "kind": "trace",
        "meta": {
            "steps_used": trace.meta.steps_used,
            "step_limit_hit": trace.meta.step_limit_hit,
            "created": trace.meta.created,
            "consumed": trace.meta.consumed,
        },
        "final_tokens": [
            {
                "id": t.id,
                "thing": t.thing,
                "attrs": t.attrs,
                "at": _ref(t.at) if t.at else None,
                "arrived": t.arrived,
            }
            for t in trace.final_tokens
        ],
    }
    # A record line is joined from fragments, keys in sorted order: the
    # bytes of ``json.dumps`` of the record's dict with ``sort_keys=True``.
    # An arc's fragments (its id and stages) are built once and found by
    # its id while the record's stages are the same objects, as records
    # share their arc's stages and hashing a StageRef costs more than the
    # rest of the line.  Building them encodes each stage once, found by
    # value, as arcs share stages; each token id is encoded once.
    arcs: dict[str, tuple[StageRef, StageRef, str, str]] = {}
    stages: dict[StageRef, str] = {}
    tokens: dict[str, str] = {}
    lines = [json.dumps(header, sort_keys=True)]
    for r in trace.records:
        arc = arcs.get(r.arc)
        if arc is None or arc[0] is not r.source or arc[1] is not r.target:
            for ref in (r.source, r.target):
                if ref not in stages:
                    stages[ref] = json.dumps(_ref(ref), sort_keys=True)
            arc = arcs[r.arc] = (
                r.source,
                r.target,
                f'{{"arc": {json.dumps(r.arc)}, "source": {stages[r.source]}, "step": ',
                f', "target": {stages[r.target]}, "token": ',
            )
        token = tokens.get(r.token)
        if token is None:
            token = tokens[r.token] = json.dumps(r.token)
        lines.append(f"{arc[2]}{r.step}{arc[3]}{token}}}")
    return "\n".join(lines) + "\n"


# -- decoding ----------------------------------------------------------------

def _ref_from(data: dict) -> StageRef:
    kind = StageKind.from_name(data["kind"]) if data.get("kind") else None
    return StageRef(tuple(data["machine"]), kind)


def trace_from_jsonl(text: str) -> Trace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise JSONFormatError("empty trace")
    header = json.loads(lines[0])
    if header.get("kind") != "trace":
        raise JSONFormatError("expected a trace payload")
    meta = header["meta"]
    records = []
    for line in lines[1:]:
        r = json.loads(line)
        records.append(
            TraceRecord(
                r["step"], r["arc"], r["token"],
                _ref_from(r["source"]), _ref_from(r["target"]),
            )
        )
    final = tuple(
        Token(
            t["id"], t["thing"], dict(t["attrs"]),
            _ref_from(t["at"]) if t.get("at") else None,
            arrived=t.get("arrived", 0),
        )
        for t in header["final_tokens"]
    )
    return Trace(
        records=tuple(records),
        final_tokens=final,
        meta=TraceMeta(
            meta["steps_used"], meta["step_limit_hit"],
            meta["created"], meta["consumed"],
        ),
    )
