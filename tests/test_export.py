import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import (
    Region,
    StageKind,
    StageRef,
    Subdiagram,
    Token,
    Trace,
    TraceMeta,
    TraceRecord,
    desugar,
    enumerate_subdiagrams,
    infer_behavior,
    parse,
    simulate,
)
from tmflow.dot import behavior_to_dot, model_to_dot
from tmflow.jsonio import (
    JSONFormatError,
    census_to_obj,
    dumps,
    graph_to_obj,
    model_to_obj,
    regions_to_obj,
    report_to_obj,
    trace_from_jsonl,
    trace_to_jsonl,
)
from tmflow.validate import validate

from conftest import MODEL_FILES, corpus_doc, corpus_scenario, nested_model, perfbench_gen


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

    def test_region_stages_sort_by_machine_path_then_kind(self):
        c, p, r, t = (StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE,
                      StageKind.TRANSFER)
        refs = [StageRef(("b",), c), StageRef(("a", "x"), t), StageRef(("a",), r),
                StageRef(("a",), c), StageRef(("a",), None), StageRef(("a", "x"), p),
                StageRef(("ab",), c)]
        body = Subdiagram(frozenset(refs), frozenset())
        [obj] = regions_to_obj([Region("r", body)])["regions"]
        assert [(s["machine"], s["kind"]) for s in obj["stages"]] == [
            (["a"], None), (["a"], "Create"), (["a"], "Release"),
            (["a", "x"], "Process"), (["a", "x"], "Transfer"),
            (["ab"], "Create"), (["b"], "Create"),
        ]


# ---------------------------------------------------------------------------
# ``dumps`` writes its documents itself; they must be the bytes of
# ``json.dumps`` with ``indent=2`` and ``sort_keys=True``, the oracle here.

def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


TEXTS = st.text() | st.text(st.sampled_from('a "\\/\x00\x1f\x7f\n\t\u00e9\u2028\u6a5f\U0001f600'))
SCALARS = (st.none() | st.booleans() | st.floats() | TEXTS
           | st.integers() | st.integers(-2**100, 2**100))
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXTS, inner, max_size=4)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(TEXTS, VALUES, max_size=5))
def test_dumps_matches_json_dumps(obj):
    assert dumps(obj) == json_dumps(obj)


def test_dumps_writes_empty_containers_and_edge_scalars():
    obj = {"": [], "b": {}, "c": [[], {}, ()], "d": [2**64, -2**64 - 1, True, False, None],
           "e": [0.1, -0.0, 1e300, float("inf"), float("nan")], "\u00e9\U0001f600": '"\\\x01'}
    assert dumps(obj) == json_dumps(obj)
    assert dumps({}) == "{}\n"


def test_dumps_raises_json_type_error_for_a_set():
    obj = {"a": [1, {"b": {1, 2}}]}
    with pytest.raises(TypeError) as oracle:
        json_dumps(obj)
    with pytest.raises(TypeError) as raised:
        dumps(obj)
    assert str(raised.value) == str(oracle.value)


def payloads(text: str) -> list[dict]:
    """Each kind of document ``tm`` writes with ``dumps``, for one model."""
    doc = parse(text)
    graph = doc.behavior or infer_behavior(doc.model, doc.regions)
    return [model_to_obj(doc.model), report_to_obj(validate(doc.model)),
            regions_to_obj(doc.regions), census_to_obj(enumerate_subdiagrams(doc.model, 3), 3),
            graph_to_obj(graph)]


def generated_models() -> list[str]:
    gen = perfbench_gen()
    return [gen[name](seed).model for name in ("static_large", "sim_tokens")
            for seed in range(1, 6)]


@pytest.mark.parametrize("text", [
    *(path.read_text(encoding="utf-8") for path in MODEL_FILES),
    *generated_models(),
    nested_model(100, 1),
], ids=[*(path.name for path in MODEL_FILES),
        *(f"{name}-{seed}" for name in ("static_large", "sim_tokens") for seed in range(1, 6)),
        "nested-100"])
def test_payloads_match_json_dumps(text):
    for obj in payloads(text):
        assert dumps(obj) == json_dumps(obj)


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


def test_trace_lines_share_stage_fragments_by_value():
    """Stages equal by value but distinct objects on different arcs, a
    stage that is the source of one arc and the target of another, and
    stages of one machine that differ only in kind."""
    def ref(machine, kind):
        return StageRef((machine,), kind)

    a, b, c = ref("a", StageKind.RELEASE), ref("b", StageKind.TRANSFER), ref("c", None)
    records = (
        TraceRecord(1, "f1", "t", a, b),
        TraceRecord(2, "f2", "t", ref("b", StageKind.TRANSFER), c),
        TraceRecord(3, "f3", "u", ref("a", StageKind.RELEASE), ref("c", None)),
        TraceRecord(4, "f1", "t", a, b),
        TraceRecord(5, "f4", "t", c, a),
        TraceRecord(6, "f5", 'x"', ref("a", None), ref("a", StageKind.TRANSFER)),
        TraceRecord(7, "f4", "u", b, ref("a", StageKind.RELEASE)),
    )
    assert_lines_match(Trace(records))


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


# ---------------------------------------------------------------------------
# A malformed trace raises JSONFormatError naming its 1-based line.

HEADER = {"schema": 1, "kind": "trace", "final_tokens": [],
          "meta": {"steps_used": 1, "step_limit_hit": False, "created": 1, "consumed": 0}}
TOKEN = {"id": "t", "thing": "job", "attrs": {"n": 1, "s": "x"},
         "at": {"machine": ["m"], "kind": "Create"}, "arrived": 1}
RECORD = {"step": 1, "arc": "f1", "token": "t",
          "source": {"machine": ["m"], "kind": "Create"},
          "target": {"machine": ["m"], "kind": "Release"}}


def jsonl(*values) -> str:
    return "\n".join(v if isinstance(v, str) else json.dumps(v) for v in values) + "\n"


def test_well_formed_trace_reads_back():
    trace = trace_from_jsonl(jsonl({**HEADER, "final_tokens": [TOKEN]}, RECORD))
    assert trace.records == (TraceRecord(1, "f1", "t", StageRef(("m",), StageKind.CREATE),
                                         StageRef(("m",), StageKind.RELEASE)),)
    assert trace.meta == TraceMeta(1, False, 1, 0)
    assert trace.final_tokens == (
        Token("t", "job", {"n": 1, "s": "x"}, StageRef(("m",), StageKind.CREATE), arrived=1),)
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


@pytest.mark.parametrize("text, message", [
    (jsonl({k: v for k, v in HEADER.items() if k != "meta"}), "line 1: no 'meta' field"),
    (jsonl(HEADER, RECORD, "", "{oops"), "line 4: not JSON"),
    (jsonl([HEADER]), "line 1: expected a trace payload"),
    (jsonl(HEADER, RECORD, {k: v for k, v in RECORD.items() if k != "arc"}),
     "line 3: no 'arc' field"),
    (jsonl(HEADER, [RECORD]), "line 2: expected a trace record"),
    (jsonl(HEADER, {**RECORD, "target": {"machine": ["m"], "kind": "Nope"}}),
     "line 2: unknown stage kind 'Nope'"),
    (jsonl(HEADER, {**RECORD, "source": ["m"]}), "line 2: "),
    (jsonl({**HEADER, "final_tokens": [{"id": "t", "thing": "job", "attrs": 3}]}), "line 1: "),
    *[(jsonl(HEADER, RECORD, {**RECORD, key: value}), f"line 3: {key!r} has the wrong type")
      for key, value in [("step", "x"), ("step", True), ("step", 1.0), ("arc", 7),
                         ("token", None)]],
    *[(jsonl(HEADER, {**RECORD, "source": {"machine": machine, "kind": "Create"}}),
       "line 2: 'machine' has the wrong type") for machine in ["ab", [1], None]],
    *[(jsonl({**HEADER, "meta": {**HEADER["meta"], key: value}}),
       f"line 1: {key!r} has the wrong type")
      for key, value in [("steps_used", "1"), ("step_limit_hit", 0), ("created", True),
                         ("consumed", None)]],
    *[(jsonl({**HEADER, "final_tokens": [{**TOKEN, key: value}]}),
       f"line 1: {key!r} has the wrong type")
      for key, value in [("id", 5), ("thing", ["job"]), ("attrs", {"n": 1.5}),
                         ("attrs", {"n": True}), ("attrs", {"n": None}), ("arrived", "3"),
                         ("arrived", False)]],
    (jsonl({**HEADER, "schema": 2}), "line 1: unknown schema 2 \\(expected 1\\)"),
    (jsonl({k: v for k, v in HEADER.items() if k != "schema"}), "line 1: no 'schema' field"),
    (jsonl(HEADER, RECORD, {**RECORD, "step": -1}), "line 3: 'step' is negative: -1"),
    *[(jsonl({**HEADER, "meta": {**HEADER["meta"], key: -2}}), f"line 1: {key!r} is negative: -2")
      for key in ["steps_used", "created", "consumed"]],
    (jsonl({**HEADER, "final_tokens": [{**TOKEN, "arrived": -1}]}),
     "line 1: 'arrived' is negative: -1"),
    (jsonl(HEADER, {**RECORD, "source": {"machine": [], "kind": "Create"}}),
     "line 2: 'machine' is empty"),
    (jsonl({**HEADER, "final_tokens": [{**TOKEN, "at": {"machine": [], "kind": "Create"}}]}),
     "line 1: 'machine' is empty"),
    (jsonl(HEADER, {**RECORD, "target": {"machine": ["m"]}}), "line 2: no 'kind' field"),
], ids=["header-without-meta", "line-not-json", "header-array", "record-without-arc",
        "record-array", "unknown-stage-kind", "stage-array", "token-attrs-not-a-dict",
        "step-text", "step-bool", "step-float", "arc-int", "token-null",
        "machine-text", "machine-of-int", "machine-null",
        "steps-used-text", "step-limit-hit-int", "created-bool", "consumed-null",
        "token-id-int", "thing-list", "attr-float", "attr-bool", "attr-null",
        "arrived-text", "arrived-bool", "schema-other", "schema-missing", "step-negative",
        "steps-used-negative", "created-negative", "consumed-negative", "arrived-negative",
        "record-machine-empty", "token-machine-empty", "record-stage-without-kind"])
def test_malformed_trace_names_the_line(text, message):
    with pytest.raises(JSONFormatError, match="^" + message):
        trace_from_jsonl(text)
