"""JSON export of models, region sets, subdiagram censuses, behavior
graphs, reports and traces, and import of traces.  All payloads carry a
top-level ``schema: 1`` marker; traces use JSON lines (header line, then
one record per line).

``dumps`` writes each other payload as one document: keys sorted, two
spaces of indent per level, ``,`` between items and ``: `` after a key,
``[]`` and ``{}`` for empty containers, and a final newline.  These are
the bytes ``json.dumps`` gives with ``indent=2`` and ``sort_keys=True``,
but ``json.dumps`` runs its pure-Python encoder whenever it indents.
``dumps`` quotes every key and string with json's C function
``encode_basestring_ascii``, writes ints, ``None`` and bools itself, and
leaves any other value, such as a float, to ``json.dumps``, which raises
json's own ``TypeError`` for a value it cannot encode.  Keys must be
strings."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .behavior import BehaviorGraph, Subdiagram
from .diagnostics import ValidationReport
from .model import _STAGE_KINDS, FlowArc, Machine, StageRef, TMModel, TriggerArc
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


def _subdiagram(sub: Subdiagram) -> dict:
    return {
        "stages": [_ref(ref) for ref in sorted(sub.stages, key=StageRef.sort_key)],
        "arcs": sorted(sub.arcs),
    }


def regions_to_obj(regions) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "regions",
        "regions": [{"id": r.id, "label": r.label, **_subdiagram(r.body)} for r in regions],
    }


def census_to_obj(subdiagrams: list[Subdiagram], bound: int) -> dict:
    """The subdiagram census at ``bound``, in ``tm events --bound``'s order."""
    return {
        "schema": SCHEMA,
        "kind": "census",
        "bound": bound,
        "subdiagrams": [_subdiagram(sub) for sub in subdiagrams],
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
    """``obj`` as a JSON document, as laid out in the module docstring."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(value, indent: str, out) -> None:
    """Append the encoding of ``value`` to ``out``.  ``indent`` is a
    newline and the spaces of ``value``'s own level."""
    if isinstance(value, str):
        out(_quote(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out(sep + _quote(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out(indent + "}")
    else:
        out(json.dumps(value))


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
    for step, arc_id, token_id, source, target in trace.records:
        arc = arcs.get(arc_id)
        if arc is None or arc[0] is not source or arc[1] is not target:
            for ref in (source, target):
                if ref not in stages:
                    stages[ref] = json.dumps(_ref(ref), sort_keys=True)
            arc = arcs[arc_id] = (
                source,
                target,
                f'{{"arc": {json.dumps(arc_id)}, "source": {stages[source]}, "step": ',
                f', "target": {stages[target]}, "token": ',
            )
        token = tokens.get(token_id)
        if token is None:
            token = tokens[token_id] = json.dumps(token_id)
        lines.append(f"{arc[2]}{step}{arc[3]}{token}}}")
    return "\n".join(lines) + "\n"


# -- decoding ----------------------------------------------------------------

def _field(data: dict, key: str, kind: type, *items: type):
    """``data[key]``, whose type must be ``kind`` exactly, as JSON reads it
    (``true`` is no integer), and each item of a list or value of a dict
    one of ``items``."""
    value = data[key]
    if type(value) is not kind or (items and any(
            type(item) not in items for item in (value.values() if kind is dict else value))):
        raise ValueError(f"{key!r} has the wrong type: {value!r}")
    return value


def _ref_from(data: dict) -> StageRef:
    kind = None
    if data.get("kind"):
        kind = _STAGE_KINDS.get(data["kind"])
        if kind is None:
            raise ValueError(f"unknown stage kind {data['kind']!r}")
    return StageRef(tuple(_field(data, "machine", list, str)), kind)


def _header_from(data: dict) -> tuple[tuple[Token, ...], TraceMeta]:
    if not isinstance(data, dict) or data.get("kind") != "trace":
        raise ValueError("expected a trace payload")
    meta = data["meta"]
    final = tuple(
        Token(
            _field(t, "id", str), _field(t, "thing", str),
            dict(_field(t, "attrs", dict, int, str)),
            _ref_from(t["at"]) if t.get("at") else None,
            arrived=_field(t, "arrived", int) if "arrived" in t else 0,
        )
        for t in data["final_tokens"]
    )
    return final, TraceMeta(
        _field(meta, "steps_used", int), _field(meta, "step_limit_hit", bool),
        _field(meta, "created", int), _field(meta, "consumed", int),
    )


def _record_from(data: dict) -> TraceRecord:
    if not isinstance(data, dict):
        raise ValueError("expected a trace record")
    return TraceRecord(
        _field(data, "step", int), _field(data, "arc", str), _field(data, "token", str),
        _ref_from(data["source"]), _ref_from(data["target"]),
    )


def _read_line(number: int, line: str, read):
    """``read`` of the JSON value on line ``number`` (1-based), with any
    fault in it raised as a ``JSONFormatError`` that names the line."""
    try:
        return read(json.loads(line))
    except json.JSONDecodeError as exc:
        raise JSONFormatError(f"line {number}: not JSON: {exc.msg}") from exc
    except KeyError as exc:
        raise JSONFormatError(f"line {number}: no {exc.args[0]!r} field") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise JSONFormatError(f"line {number}: {exc}") from exc


def trace_from_jsonl(text: str) -> Trace:
    """The trace that ``trace_to_jsonl`` wrote as ``text``.  Text that is
    no such trace raises ``JSONFormatError``, naming the line at fault."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise JSONFormatError("empty trace")
    final, meta = _read_line(*lines[0], _header_from)
    records = tuple(_read_line(n, line, _record_from) for n, line in lines[1:])
    return Trace(records=records, final_tokens=final, meta=meta)
