import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import (
    StageKind,
    StageRef,
    Token,
    Trace,
    TraceMeta,
    TraceRecord,
    desugar,
    parse,
    simulate,
)
from tmflow.dot import behavior_to_dot, model_to_dot
from tmflow.jsonio import (
    JSONFormatError,
    dumps,
    model_to_obj,
    regions_to_obj,
    report_to_obj,
    trace_from_jsonl,
    trace_to_jsonl,
)
from tmflow.validate import validate

from conftest import MODEL_FILES, corpus_doc, corpus_scenario


SUGAR_DOT = """digraph "pipeline" {
  compound=true
  node [shape=box]
  subgraph cluster_sender {
    label="sender"
    "sender.Create" [label="Create"]
    "sender.Release" [label="Release"]
    "sender.Transfer" [label="Transfer"]
  }
  subgraph cluster_receiver {
    label="receiver"
    "receiver.Process" [label="Process"]
    "receiver.Transfer" [label="Transfer"]
    "receiver.Receive" [label="Receive"]
  }
  "sender.Create" -> "sender.Release" [label="parcel"]
  "sender.Release" -> "sender.Transfer" [label="parcel"]
  "sender.Transfer" -> "receiver.Transfer" [label="parcel (shipment)"]
  "receiver.Transfer" -> "receiver.Receive" [label="parcel"]
  "receiver.Receive" -> "receiver.Process" [label="parcel"]
}
"""

BEHAVIOR_DOT = """digraph "behavior" {
  node [shape=ellipse]
  "morning" [label="morning\\n[0,+12]", penwidth=2]
  "evening" [label="evening\\n[12,+12]"]
  "morning" -> "evening"
}
"""


class TestDot:
    def test_model_snapshot(self, sugar_pipeline):
        assert model_to_dot(sugar_pipeline.model, name="pipeline") == SUGAR_DOT

    def test_behavior_snapshot(self, one_lane):
        assert behavior_to_dot(one_lane.behavior) == BEHAVIOR_DOT

    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
    def test_output_is_stable_across_reparses(self, path):
        text = path.read_text(encoding="utf-8")
        assert model_to_dot(parse(text).model) == model_to_dot(parse(text).model)

    def test_trigger_edges_are_dashed(self, mousetrap):
        out = model_to_dot(mousetrap.model)
        dashed = [line for line in out.splitlines() if "style=dashed" in line]
        assert len(dashed) == len(mousetrap.model.triggers)

    def test_nested_machines_become_nested_clusters(self, mousetrap):
        out = model_to_dot(mousetrap.model)
        assert "subgraph cluster_trap {" in out
        assert "subgraph cluster_trap_bait {" in out

    def test_guards_appear_on_trigger_labels(self, stack):
        out = model_to_dot(stack.model)
        assert 'when op = \\"pop\\"' in out


class TestJsonRoundTrip:
    def test_trace(self):
        doc = corpus_doc("formula.tm")
        trace = simulate(desugar(doc.model), corpus_scenario("formula.tms"))
        assert trace_from_jsonl(trace_to_jsonl(trace)) == trace

    def test_trace_is_json_lines(self):
        doc = corpus_doc("mousetrap.tm")
        trace = simulate(desugar(doc.model), corpus_scenario("mousetrap.tms"))
        lines = trace_to_jsonl(trace).splitlines()
        assert len(lines) == 1 + len(trace.records)
        for line in lines:
            json.loads(line)
        assert json.loads(lines[0])["schema"] == 1

    def test_report_is_serializable(self, one_lane):
        payload = report_to_obj(validate(one_lane.model))
        text = dumps(payload)
        assert json.loads(text)["ok"] is True
        codes = [d["code"] for d in json.loads(text)["diagnostics"]]
        assert "OPPOSING_FLOWS" in codes

    def test_schema_marker_everywhere(self, mousetrap):
        assert model_to_obj(mousetrap.model)["schema"] == 1
        assert regions_to_obj(mousetrap.regions)["schema"] == 1

    def test_wrong_kind_rejected(self, mousetrap):
        with pytest.raises(JSONFormatError):
            trace_from_jsonl(json.dumps(regions_to_obj(mousetrap.regions)))
        with pytest.raises(JSONFormatError):
            trace_from_jsonl("")

    def test_dumps_is_deterministic(self, stack):
        assert dumps(model_to_obj(stack.model)) == dumps(model_to_obj(stack.model))


# ---------------------------------------------------------------------------
# Trace lines are joined from memoized fragments; they must be the bytes
# ``json.dumps`` gives for each record's dict.

def dict_line(record: TraceRecord) -> str:
    def ref(r):
        return {"machine": list(r.machine), "kind": r.kind.value if r.kind else None}

    return json.dumps(
        {"step": record.step, "arc": record.arc, "token": record.token,
         "source": ref(record.source), "target": ref(record.target)},
        sort_keys=True,
    )


def assert_lines_match(trace: Trace) -> None:
    text = trace_to_jsonl(trace)
    lines = text.split("\n")
    assert lines[-1] == ""
    assert lines[1:-1] == [dict_line(r) for r in trace.records]
    assert trace_from_jsonl(text) == trace


ODD_IDS = ['a"1', "b\\2", "caf\u00e9", "\u6a5f3", "4", 'q"\\\u00ff"', "\U0001f600", ""]


def test_trace_lines_escape_ids_like_json_dumps():
    refs = [StageRef((m,), kind) for m in ODD_IDS for kind in (StageKind.CREATE, None)]
    refs.append(StageRef(("outer", 'in"ner', "\u00e9"), StageKind.TRANSFER))
    records = []
    for step, arc in enumerate(ODD_IDS * 3, start=1):
        source = refs[step % len(refs)]
        target = refs[(3 * step) % len(refs)]
        records.append(TraceRecord(step * 7, arc, ODD_IDS[step % 5], source, target))
    # The same arc id with other stages, and with equal stages that are
    # other objects.
    records.append(TraceRecord(99, ODD_IDS[0], "t", refs[5], refs[6]))
    records.append(TraceRecord(100, ODD_IDS[0], "t", StageRef(refs[5].machine, refs[5].kind),
                               StageRef(refs[6].machine, refs[6].kind)))
    final = (Token('t"', "job", {"n": 1, "s": "\u00e9"}, refs[-1], arrived=3),)
    trace = Trace(tuple(records), final, TraceMeta(100, False, 2, 1))
    assert_lines_match(trace)
    json_lines = trace_to_jsonl(trace).splitlines()
    assert all(line.isascii() for line in json_lines)


IDS = st.text(st.sampled_from('ab9"\\\u00e9\u6a5f\U0001f600 '), max_size=4)
REFS = st.builds(StageRef, st.lists(IDS, min_size=1, max_size=3).map(tuple),
                 st.sampled_from([*StageKind, None]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(TraceRecord, st.integers(0, 10**6), IDS, IDS, REFS, REFS),
                max_size=20))
def test_trace_lines_match_json_dumps(records):
    assert_lines_match(Trace(tuple(records)))


def test_corpus_trace_lines_match_json_dumps():
    doc = corpus_doc("paint_control.tm")
    assert_lines_match(simulate(doc.model, corpus_scenario("paint_control.tms")))
