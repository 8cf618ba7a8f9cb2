"""End-to-end acceptance checks, one class per headline capability."""

import json

from tmflow import (
    conformance,
    desugar,
    infer_behavior,
    parse,
    parse_with_diagnostics,
    segment,
    serialize,
    simulate,
    validate,
    validate_behavior,
)
from tmflow.behavior import enumerate_subdiagrams
from tmflow.cli import main
from tmflow.dot import model_to_dot
from tmflow.jsonio import trace_to_jsonl

from conftest import CORPUS, MODEL_FILES, corpus_doc, corpus_scenario, mutated_models
from test_behavior import brute_force_subdiagrams


def run(model_name, scenario_name):
    doc = corpus_doc(model_name)
    trace = simulate(desugar(doc.model), corpus_scenario(scenario_name))
    return doc, trace


class TestStackBehaviorGraph:
    """Criterion 1: the stack service yields exactly the expected graph."""

    def test_exact_edge_set_and_initial_event(self, stack):
        graph = infer_behavior(stack.model, stack.regions)
        assert set(graph.edges) == {
            ("E0", "E1"), ("E0", "E6"), ("E1", "E2"), ("E2", "E3"),
            ("E2", "E4"), ("E4", "E5"), ("E3", "E0"), ("E6", "E7"),
            ("E6", "E8"), ("E8", "E9"),
        }
        assert len(graph.edges) == 10
        assert graph.initial == ("E0",)

    def test_push_pop_and_error_paths_conform(self, stack):
        graph = infer_behavior(stack.model, stack.regions)
        expected = {
            "stack_push.tms": ["E0", "E6", "E7", "E8", "E9"],
            "stack_pop.tms": ["E0", "E1", "E2", "E4", "E5"],
            "stack_pop_empty.tms": ["E0", "E1", "E2", "E3", "E0"],
        }
        for scenario_name, regions in expected.items():
            _, trace = run("stack.tm", scenario_name)
            seg = segment(trace, stack.regions)
            assert [o.region for o in seg.occurrences] == regions
            assert conformance(seg.occurrences, graph).ok


class TestMousetrapPipeline:
    """Criterion 2: inference, simulation, segmentation, conformance."""

    def test_linear_chain_inferred(self, mousetrap):
        graph = infer_behavior(mousetrap.model, mousetrap.regions)
        assert graph.edges == (("a", "b"), ("b", "c"), ("c", "d"))
        assert graph.initial == ("a",)

    def test_simulated_trace_segments_and_conforms(self, mousetrap):
        _, trace = run("mousetrap.tm", "mousetrap.tms")
        seg = segment(trace, mousetrap.regions)
        assert [o.region for o in seg.occurrences] == ["a", "b", "c", "d"]
        graph = infer_behavior(mousetrap.model, mousetrap.regions)
        assert conformance(seg.occurrences, graph).ok


class TestIterativeFormula:
    """Criterion 3: three accumulation loops, then the result is emitted."""

    def test_sum_of_one_to_three_is_six(self):
        doc, trace = run("formula.tm", "formula.tms")
        [token] = trace.final_tokens
        assert token.attrs["sum"] == 6
        seg = segment(trace, doc.regions)
        regions = [o.region for o in seg.occurrences]
        assert regions == ["add", "bump", "add", "bump", "add", "bump", "emit"]
        assert regions.count("add") == 3


class TestBranchingBehaviors:
    """Criterion 4: one initial event with three alternative follow-ups."""

    def test_exact_edges_and_chronologies(self, multiple_behaviors):
        graph = infer_behavior(
            multiple_behaviors.model, multiple_behaviors.regions
        )
        assert set(graph.edges) == {("E1", "E2"), ("E1", "E3"), ("E1", "E4")}
        assert graph.initial == ("E1",)
        assert [dst for src, dst in graph.edges if src == "E1"] == ["E2", "E3", "E4"]


class TestOneLaneStreet:
    """Criterion 5: opposing flows warn without failing; the declared
    morning/evening schedule is accepted."""

    def test_check_warns_but_passes(self, capsys, monkeypatch):
        monkeypatch.setenv("TM_COLOR", "never")
        code = main(["check", str(CORPUS / "one_lane_street.tm")])
        out = capsys.readouterr().out
        assert code == 0
        assert "OPPOSING_FLOWS" in out

    def test_schedule_has_no_interval_order_error(self, one_lane):
        report = validate_behavior(
            one_lane.model, one_lane.regions, one_lane.behavior, mode="overlap"
        )
        assert report.ok
        assert "INTERVAL_ORDER" not in {d.code for d in report.diagnostics}


class TestPaintThenDry:
    """Criterion 6: strict precedence in the trace; the overlap schedule
    validates while the same schedule fails under strict ordering."""

    def test_simulated_painting_fully_precedes_drying(self, paint_dry):
        _, trace = run("paint_dry.tm", "paint_dry.tms")
        last_paint = max(r.step for r in trace.records if r.arc.startswith("p"))
        first_dry = min(r.step for r in trace.records if r.arc.startswith("d"))
        assert last_paint < first_dry

    def test_overlap_passes_strict_fails(self, paint_dry):
        overlap = validate_behavior(
            paint_dry.model, paint_dry.regions, paint_dry.behavior, mode="overlap"
        )
        assert overlap.ok
        strict = validate_behavior(
            paint_dry.model, paint_dry.regions, paint_dry.behavior, mode="strict"
        )
        assert [d.code for d in strict.errors] == ["INTERVAL_ORDER"]


class TestSubdiagramEnumeration:
    """Criterion 7: enumeration agrees with an independent brute-force
    oracle on every small corpus model."""

    def test_all_small_models_match_oracle(self):
        checked = 0
        for path in MODEL_FILES:
            model = desugar(parse(path.read_text(encoding="utf-8")).model)
            stages = model.stage_instances()
            if len(stages) > 8:
                continue
            bound = len(stages) + len(list(model.arcs()))
            assert enumerate_subdiagrams(model, bound) == (
                brute_force_subdiagrams(model, bound)
            ), path.name
            checked += 1
        assert checked >= 3


class TestInvariants:
    """Criterion 8: property suites over the whole corpus."""

    def test_corpus_round_trips(self):
        for path in MODEL_FILES:
            doc = parse(path.read_text(encoding="utf-8"))
            assert parse(serialize(doc)) == doc, path.name

    def test_fuzzed_inputs_never_crash(self):
        for text in mutated_models():
            parse_with_diagnostics(text)

    def test_simulation_is_deterministic(self):
        pairs = [
            ("mousetrap.tm", "mousetrap.tms"),
            ("stack.tm", "stack_push.tms"),
            ("paint_control.tm", "paint_control.tms"),
        ]
        for model_name, scenario_name in pairs:
            first = trace_to_jsonl(run(model_name, scenario_name)[1])
            second = trace_to_jsonl(run(model_name, scenario_name)[1])
            assert first == second, model_name

    def test_tokens_are_conserved(self):
        for model_name, scenario_name in [
            ("mousetrap.tm", "mousetrap.tms"),
            ("formula.tm", "formula.tms"),
            ("stack.tm", "stack_push.tms"),
            ("stack.tm", "stack_pop.tms"),
            ("stack.tm", "stack_pop_empty.tms"),
            ("paint_dry.tm", "paint_dry.tms"),
            ("paint_control.tm", "paint_control.tms"),
            ("multiple_behaviors.tm", "multiple_behaviors.tms"),
        ]:
            trace = run(model_name, scenario_name)[1]
            alive = len(trace.final_tokens)
            assert trace.meta.created == trace.meta.consumed + alive, model_name

    def test_overlapping_regions_are_rejected(self, mousetrap):
        from tmflow import RegionCheckFailed, Region, Subdiagram
        import pytest

        first = mousetrap.regions[0]
        clone = Region("dupe", Subdiagram(first.body.stages, frozenset()))
        with pytest.raises(RegionCheckFailed) as exc:
            infer_behavior(mousetrap.model, mousetrap.regions + (clone,))
        assert "OVERLAP" in {d.code for d in exc.value.report.errors}

    def test_dot_snapshots_are_stable(self):
        for path in MODEL_FILES:
            text = path.read_text(encoding="utf-8")
            once = model_to_dot(parse(text).model)
            again = model_to_dot(parse(text).model)
            assert once == again, path.name

    def test_corpus_validates_without_errors(self):
        for path in MODEL_FILES:
            report = validate(parse(path.read_text(encoding="utf-8")).model)
            assert report.ok, f"{path.name}: {report}"
