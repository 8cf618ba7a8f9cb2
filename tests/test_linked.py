"""Linking a model once: sugar expansion, suffix resolution, parsed
guards and the unresolved-arc policy shared by every analysis."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tmflow
from tmflow import (
    StageKind,
    StageNotDeclaredError,
    StageRef,
    TMModel,
    UnknownMachineError,
)
from tmflow.cli import main
from tmflow.dot import model_to_dot
from tmflow.model import Linked, link

from conftest import CORPUS, corpus_text, perfbench_gen

BROKEN = """\
machine a { stages Create, Process, Release, Transfer }
machine b { stages Release }
flow f1: a.Create -> a.Process
flow f2: a.Process -> ghost.Process
flow g: a => nowhere
flow f3: a.Process -> a.Create
trigger t1: a.Process -> b.Create
"""


class TestLinked:
    def test_arcs_are_rewritten_to_full_paths(self):
        model = tmflow.parse(
            "machine outer { stages Create, Process\n"
            "  machine inner { stages Create, Process } }\n"
            "flow f1: inner.Create -> inner.Process\n"
            "trigger t1: outer.Process -> inner.Create\n"
        ).model
        linked = link(model)
        inner = ("outer", "inner")
        assert [(a.source, a.target) for a in linked.arcs()] == [
            (StageRef(inner, StageKind.CREATE), StageRef(inner, StageKind.PROCESS)),
            (StageRef(("outer",), StageKind.PROCESS), StageRef(inner, StageKind.CREATE)),
        ]
        assert linked.model == model  # nothing to expand
        assert linked.normalize(StageRef(("inner",), StageKind.CREATE)) == \
            StageRef(inner, StageKind.CREATE)

    def test_sugar_is_expanded_once(self, sugar_pipeline):
        linked = link(sugar_pipeline.model)
        assert linked.model == tmflow.desugar(sugar_pipeline.model)
        assert [a.id for a in linked.flows] == \
            ["s1", "route__rel", "route__x", "route__rcv", "r1"]
        assert linked.normalize(StageRef(("receiver",), StageKind.RECEIVE)) == \
            StageRef(("receiver",), StageKind.RECEIVE)

    def test_unresolved_arcs_are_set_aside_in_order(self):
        linked = link(tmflow.parse(BROKEN).model)
        assert [(arc.id, str(exc)) for arc, exc in linked.unresolved] == [
            ("g", "no machine matches path 'nowhere'"),
            ("f2", "no machine matches path 'ghost'"),
            ("t1", "machine 'b' does not declare a Create stage"),
        ]
        assert [arc.id for arc in linked.flows] == ["f1", "f3"]
        assert linked.triggers == ()

    def test_require_raises_the_first_unresolved_arc(self):
        with pytest.raises(UnknownMachineError, match="'nowhere'"):
            link(tmflow.parse(BROKEN).model).require()

    def test_link_is_kept_on_the_model(self):
        model = tmflow.parse(BROKEN).model
        twin = tmflow.parse(BROKEN).model
        assert link(model) is link(model)
        assert twin == model and link(twin) is not link(model)

    def test_guards_are_parsed_once_per_text(self):
        model = tmflow.parse(
            "thing job { n: int }\n"
            "machine a { stages Create, Process, Release }\n"
            "flow f1: a.Create -> a.Process on job when n > 1\n"
            "flow f2: a.Process -> a.Release on job when n > 1\n"
            "trigger t1: a.Process -> a.Create when n = 0\n"
        ).model
        exprs = link(model).model._exprs
        assert exprs is model._exprs
        assert list(exprs) == [("guard", "n > 1"), ("guard", "n = 0")]
        assert exprs["guard", "n = 0"] == tmflow.exprs.parse_guard("n = 0")

    def test_normalize_matches_public_resolution(self):
        model = tmflow.parse(
            "machine x { stages Create\n  machine y { stages Create } }\n"
            "machine z { machine y2 { stages Create } }\n"
        ).model
        linked = link(model)
        for ref in (StageRef(("y",), StageKind.CREATE),
                    StageRef(("x", "y"), StageKind.CREATE),
                    StageRef(("y",), StageKind.PROCESS),
                    StageRef(("w", "y"), StageKind.CREATE),
                    StageRef((), StageKind.CREATE)):
            try:
                expected = tmflow.normalize_ref(model, ref)
            except (UnknownMachineError, StageNotDeclaredError) as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    linked.normalize(ref)
            else:
                assert linked.normalize(ref) == expected

    def test_a_ref_that_fails_is_looked_up_again(self, monkeypatch):
        linked = link(tmflow.parse(
            "machine x { stages Create\n  machine y { stages Create } }\n").model)
        lookups = count_calls(monkeypatch, tmflow.model, "_lookup")
        for ref, error, message in (
            (StageRef(("ghost",), StageKind.CREATE), UnknownMachineError,
             "no machine matches path 'ghost'"),
            (StageRef(("y",), StageKind.PROCESS), StageNotDeclaredError,
             "machine 'y' does not declare a Process stage"),
        ):
            for _ in range(2):
                with pytest.raises(error) as raised:
                    linked.normalize(ref)
                assert type(raised.value) is error and str(raised.value) == message
        assert lookups[0] == 4

    def test_equal_refs_built_apart_resolve_alike(self, monkeypatch):
        linked = link(tmflow.parse(
            "machine x { stages Create\n  machine y { stages Create } }\n").model)
        lookups = count_calls(monkeypatch, tmflow.model, "_lookup")
        suffix = [StageRef(tuple(["y"]), StageKind.CREATE) for _ in range(2)]
        full = [StageRef(tuple(["x", "y"]), StageKind.CREATE) for _ in range(2)]
        assert suffix[0] is not suffix[1] and full[0] is not full[1]
        assert [linked.normalize(ref) for ref in suffix + full] == \
            [StageRef(("x", "y"), StageKind.CREATE)] * 4
        assert lookups[0] == 2
        assert tmflow.normalize_ref(linked.model, suffix[1]) == full[0]

    def test_each_region_naming_an_unknown_machine_is_reported(self):
        doc = tmflow.parse(
            "machine a { stages Create, Process }\n"
            "flow f1: a.Create -> a.Process\n"
            "regions {\n"
            "  region R1 { stages a.Create, ghost.Process }\n"
            "  region R2 { stages ghost.Process, a.Process }\n"
            "}\n"
        )
        report = tmflow.check_regions(doc.model, doc.regions)
        assert [(d.code, d.message) for d in report.errors
                if d.code == "DANGLING_REF"] == [
            ("DANGLING_REF", "region 'R1': no machine matches path 'ghost'"),
            ("DANGLING_REF", "region 'R2': no machine matches path 'ghost'"),
        ]


class TestUnresolvedPolicy:
    def test_validate_reports_unresolved_before_other_errors(self):
        report = tmflow.validate(tmflow.parse(BROKEN).model)
        assert [d.code for d in report.errors] == \
            ["UNRESOLVED", "UNRESOLVED", "UNRESOLVED", "ADJACENCY"]
        assert [d.message for d in report.errors[:3]] == [
            "arc 'g': no machine matches path 'nowhere'",
            "flow 'f2': no machine matches path 'ghost'",
            "trigger 't1': machine 'b' does not declare a Create stage",
        ]

    @pytest.mark.parametrize("analysis", [
        lambda m: tmflow.infer_behavior(m, ()),
        lambda m: tmflow.enumerate_subdiagrams(m, 1),
        lambda m: tmflow.reachable_stages(m, []),
        lambda m: tmflow.simulate(m, tmflow.Scenario()),
        model_to_dot,
    ])
    def test_other_analyses_raise_the_first(self, analysis):
        with pytest.raises(UnknownMachineError, match="'nowhere'"):
            analysis(tmflow.parse(BROKEN).model)

    def test_a_trigger_end_without_a_stage_is_unresolved(self):
        """A trigger built by hand to a machine, not a stage, is set aside
        like an unknown machine: validate and check_regions report it, and
        every other analysis raises it."""
        process = StageRef(("a",), StageKind.PROCESS)
        model = TMModel(
            machines=(tmflow.Machine("a", stages=(StageKind.CREATE, StageKind.PROCESS)),
                      tmflow.Machine("b", stages=(StageKind.PROCESS,))),
            flows=(tmflow.FlowArc("f1", StageRef(("a",), StageKind.CREATE), process),),
            triggers=(tmflow.TriggerArc("t1", process, StageRef(("b",), None)),),
        )
        why = "'b' names a machine, not a stage"
        assert [(arc.id, str(exc)) for arc, exc in link(model).unresolved] == [("t1", why)]
        assert [(d.code, d.message) for d in tmflow.validate(model).errors] == \
            [("UNRESOLVED", f"trigger 't1': {why}")]
        region = tmflow.Region("R", tmflow.Subdiagram(frozenset({process}), frozenset({"t1"})))
        assert [(d.code, d.message) for d in tmflow.check_regions(model, [region]).errors] == \
            [("DANGLING_REF", f"region 'R': arc 't1': {why}")]
        for analysis in (lambda m: tmflow.infer_behavior(m, [region]),
                         lambda m: tmflow.enumerate_subdiagrams(m, 2),
                         lambda m: tmflow.simulate(m, tmflow.Scenario()),
                         model_to_dot):
            with pytest.raises(tmflow.ModelError, match=why):
                analysis(model)


SUGAR_PIPELINE_TMS = """\
scenario ship {
  max_steps 20
  token p of parcel at sender.Create
}
"""


def test_readme_api_example_on_sugared_model():
    doc = tmflow.parse(corpus_text("sugar_pipeline.tm"))
    report = tmflow.validate(doc.model)
    graph = tmflow.infer_behavior(doc.model, doc.regions)
    scenario = tmflow.parse_scenario(SUGAR_PIPELINE_TMS)
    trace = tmflow.simulate(doc.model, scenario)
    seg = tmflow.segment(trace, doc.regions)
    assert report.ok
    assert tmflow.conformance(seg.occurrences, graph).ok
    assert [r.arc for r in trace.records] == \
        ["s1", "route__rel", "route__x", "route__rcv", "r1"]
    assert trace == tmflow.simulate(tmflow.desugar(doc.model), scenario)


def chain(n: int) -> tuple[str, str]:
    """A line of n units, odd ones nested in the unit before.  A job is
    processed once per unit (``hop`` counts the units passed) and is kept
    from looping inside a unit by the guards on its in and out flows."""
    stages = [f"{'Receive' if i else 'Create'}, Process, Release, Transfer"
              for i in range(n)]
    machines = []
    for i in range(0, n, 2):
        inner = f"\n  machine u{i + 1} {{ stages {stages[i + 1]} }}" if i + 1 < n else ""
        machines.append(f"machine u{i} {{ stages {stages[i]}{inner} }}")
    arcs = ["flow a0: u0.Create -> u0.Process on job"]
    regions = []
    for i in range(n):
        ids = [f"in{i}", f"rp{i}"] if i else ["a0"]
        if i:
            arcs.append(f"flow in{i}: u{i}.Transfer -> u{i}.Receive on job when hop < {i + 1}")
            arcs.append(f"flow rp{i}: u{i}.Receive -> u{i}.Process on job")
        arcs.append(f"flow p{i}: u{i}.Process -> u{i}.Release on job")
        arcs.append(f"flow r{i}: u{i}.Release -> u{i}.Transfer on job")
        ids += [f"p{i}", f"r{i}"]
        if i + 1 < n:
            arcs.append(f"flow x{i}: u{i}.Transfer -> u{i + 1}.Transfer on job when hop > {i}")
        refs = ", ".join(f"u{i}.{kind}" for kind in stages[i].split(", "))
        regions.append(f"  region R{i} {{ stages {refs}\n    arcs {', '.join(ids)} }}")
    model = "\n".join(
        ["thing job { hop: int }", *machines, *arcs, "regions {", *regions, "}"]
    ) + "\n"
    actions = "".join(f"  action u{i}.Process {{ hop := hop + 1 }}\n" for i in range(n))
    scenario = (
        "scenario chain {\n  max_steps 1000\n"
        "  token j of job at u0.Create { hop = 0 }\n" + actions + "}\n"
    )
    return model, scenario


def test_walks_do_not_grow_with_model_size(monkeypatch):
    """Linking walks the machine tree once, and the analyses read the
    link, so no analysis re-resolves suffix paths per arc (which made them
    quadratic in model size)."""
    walks = count_calls(monkeypatch, TMModel, "walk")

    def counts(n):
        model_text, scenario_text = chain(n)
        doc = tmflow.parse(model_text)
        scenario = tmflow.parse_scenario(scenario_text)
        found = []
        for run in (lambda: tmflow.validate(doc.model),
                    lambda: tmflow.infer_behavior(doc.model, doc.regions),
                    lambda: tmflow.simulate(doc.model, scenario)):
            walks[0] = 0
            result = run()
            found.append(walks[0])
        assert tmflow.validate(doc.model).ok
        assert result.final_tokens[0].attrs["hop"] == n
        return found

    assert counts(20) == counts(40) == [1, 0, 0]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call is counted; returns the count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def model_refs(doc) -> set[StageRef]:
    """The distinct stage refs that the arcs and regions of ``doc`` name."""
    refs = {ref for arc in doc.model.arcs() for ref in (arc.source, arc.target)}
    return refs.union(*(region.body.stages for region in doc.regions))


def count_guard_parses(monkeypatch, name="parse_lexemes"):
    """Count calls of ``exprs.parse_lexemes``, which parses every guard,
    action and stop condition (or of the ``exprs`` function ``name``),
    through every tmflow module that imported it."""
    calls = count_calls(monkeypatch, tmflow.exprs, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("tmflow.") and hasattr(module, name):
            monkeypatch.setattr(module, name, getattr(tmflow.exprs, name))
    return calls


class TestLinkOnce:
    def test_check_links_once(self, tmp_path, monkeypatch, capsys):
        """`tm check` on a model with regions and a `.tmb` behavior runs
        validate, check_regions and validate_behavior over one link."""
        text = corpus_text("paint_dry.tm")
        (tmp_path / "paint_dry.tm").write_text(text[: text.index("behavior {")])
        (tmp_path / "paint_dry.tmb").write_text(corpus_text("paint_dry_strict.tmb"))
        links = count_calls(monkeypatch, Linked, "__init__")
        assert main(["check", str(tmp_path / "paint_dry.tm"), "--mode", "strict"]) == 0
        assert capsys.readouterr().out.endswith("ok\n")
        assert links[0] == 1

    def test_simulate_links_once(self, monkeypatch, capsys):
        """`tm simulate` runs the scenario and infers the graph for
        conformance over one link."""
        links = count_calls(monkeypatch, Linked, "__init__")
        assert main(["simulate", str(CORPUS / "mousetrap.tm"),
                     str(CORPUS / "mousetrap.tms")]) == 0
        assert capsys.readouterr().out.endswith("conformance: ok\n")
        assert links[0] == 1

    def test_each_guard_is_parsed_once_after_parse(self, monkeypatch):
        model_text, scenario_text = chain(6)
        doc = tmflow.parse(model_text)
        scenario = tmflow.parse_scenario(scenario_text)
        guarded = [arc for arc in doc.model.arcs() if arc.guard is not None]
        parses = count_guard_parses(monkeypatch)
        assert tmflow.validate(doc.model).ok
        trace = tmflow.simulate(doc.model, scenario)
        assert trace.final_tokens[0].attrs["hop"] == 6
        assert parses[0] == 0 and len(guarded) == 10

    def test_scenario_texts_are_parsed_once(self, monkeypatch):
        """parse_scenario parses each action and the stop condition from
        its file's tokens, and simulate runs on those forms, also on a copy
        with another seed, without parsing any text again."""
        model_text, scenario_text = chain(6)
        scenario_text = scenario_text[:-2] + "  stop when hop > 99\n}\n"
        doc = tmflow.parse(model_text)
        scenario = tmflow.parse_scenario(scenario_text)
        assert scenario.stop == "hop > 99" and len(scenario.actions) == 6
        parses = count_guard_parses(monkeypatch)
        assert tmflow.validate(doc.model).ok
        for run in (scenario, replace(scenario, seed=3)):
            trace = tmflow.simulate(doc.model, run)
            assert trace.final_tokens[0].attrs["hop"] == 6
        assert parses[0] == 0

    def test_each_file_is_lexed_once(self, monkeypatch):
        """parse and parse_scenario lex their file once, guards, actions
        and the stop condition included; validate and simulate lex and
        parse nothing."""
        model_text, scenario_text = chain(6)
        scenario_text = scenario_text[:-2] + "  stop when hop > 99\n}\n"
        lexes = count_guard_parses(monkeypatch, "tokenize")
        doc = tmflow.parse(model_text)
        assert lexes[0] == 1
        scenario = tmflow.parse_scenario(scenario_text)
        assert lexes[0] == 2
        parses = count_guard_parses(monkeypatch)
        assert tmflow.validate(doc.model).ok
        trace = tmflow.simulate(doc.model, scenario)
        assert trace.final_tokens[0].attrs["hop"] == 6
        assert (lexes[0], parses[0]) == (2, 0)

    def test_hand_built_model_parses_each_guard_text_once(self, monkeypatch):
        job = StageRef(("a",), StageKind.CREATE)
        work = StageRef(("a",), StageKind.PROCESS)
        model = TMModel(
            machines=(tmflow.Machine("a", stages=(StageKind.CREATE, StageKind.PROCESS)),),
            flows=(tmflow.FlowArc("f1", job, work, guard="n > 0"),
                   tmflow.FlowArc("f2", job, work, guard="n > 0")),
            things=(tmflow.ThingDecl("job", (("n", "int"),)),),
        )
        lexes = count_guard_parses(monkeypatch, "tokenize")
        assert tmflow.validate(model).ok
        scenario = tmflow.Scenario(
            tokens=(tmflow.TokenSeed("j", "job", job, {"n": 1}),),
            actions=((work, "n := n + 1"),),
        )
        trace = tmflow.simulate(model, scenario)
        assert [r.arc for r in trace.records] == ["f1"]
        assert trace.final_tokens[0].attrs == {"n": 2}
        assert lexes[0] == 2  # "n > 0" and "n := n + 1"

    def test_check_links_regions_once(self, tmp_path, monkeypatch, capsys):
        """`tm check` runs check_regions and validate_behavior over one
        link of the region set."""
        text = corpus_text("paint_dry.tm")
        (tmp_path / "paint_dry.tm").write_text(text[: text.index("behavior {")])
        (tmp_path / "paint_dry.tmb").write_text(corpus_text("paint_dry_strict.tmb"))
        links = count_calls(monkeypatch, tmflow.behavior, "_link_regions")
        assert main(["check", str(tmp_path / "paint_dry.tm"), "--mode", "strict"]) == 0
        assert capsys.readouterr().out.endswith("ok\n")
        assert links[0] == 1

    def test_region_link_follows_the_region_set(self, paint_dry):
        """Another region set, or a report changed by its caller, does not
        reach the next check."""
        model, regions = paint_dry.model, paint_dry.regions
        first = tmflow.check_regions(model, regions)
        assert first.ok
        first.diagnostics.append(tmflow.Diagnostic("error", "X", "changed"))
        assert tmflow.check_regions(model, regions).ok
        overlapping = regions + (regions[0],)
        assert not tmflow.check_regions(model, overlapping).ok
        assert tmflow.check_regions(model, regions).ok

    def test_check_and_behavior_look_up_each_ref_once(self, tmp_path, monkeypatch, capsys):
        """`tm check` and `tm behavior` resolve each distinct stage ref of
        the model text once, though arcs and regions name it again."""
        doc_text = perfbench_gen()["static_large"](3).model
        (tmp_path / "m.tm").write_text(doc_text)
        doc = tmflow.parse(doc_text)
        refs = model_refs(doc)
        mentions = (2 * (len(doc.model.flows) + len(doc.model.triggers))
                    + sum(len(region.body.stages) for region in doc.regions))
        assert mentions > 2 * len(refs)
        for command in ("check", "behavior"):
            lookups = count_calls(monkeypatch, tmflow.model, "_lookup")
            assert main([command, str(tmp_path / "m.tm")]) == 0
            capsys.readouterr()
            assert lookups[0] == len(refs)

    def test_simulate_looks_up_each_ref_once(self, tmp_path, monkeypatch, capsys):
        """`tm simulate` resolves each distinct stage ref of the model and
        scenario texts at most once: tokens, injections, mints and actions
        read the model's table."""
        made = perfbench_gen()["sim_tokens"](3)
        (tmp_path / "m.tm").write_text(made.model)
        (tmp_path / "m.tms").write_text(made.scenario)
        scenario = tmflow.parse_scenario(made.scenario)
        named = [seed.at for seed in scenario.tokens]
        named += [seed.at for _, seed in scenario.injections]
        named += [ref for ref, _, _ in scenario.mints]
        named += [ref for ref, _ in scenario.actions]
        refs = model_refs(tmflow.parse(made.model)) | set(named)
        assert scenario.injections and scenario.mints
        lookups = count_calls(monkeypatch, tmflow.model, "_lookup")
        assert main(["simulate", str(tmp_path / "m.tm"), str(tmp_path / "m.tms")]) == 0
        assert capsys.readouterr().out.endswith("conformance: ok\n")
        assert lookups[0] <= len(refs)

    def test_export_and_census_parse_no_guard(self, monkeypatch):
        doc = tmflow.parse(chain(4)[0])
        parses = count_guard_parses(monkeypatch)
        model_to_dot(doc.model)
        tmflow.enumerate_subdiagrams(doc.model, 2)
        assert parses[0] == 0


def walk_once_models(tmp_path) -> list[tuple[Path, Path]]:
    """``sugar_pipeline.tm`` and perfbench's static-large seed 3, each
    written with a scenario."""
    made = perfbench_gen()["static_large"](3)
    files = []
    for name, model, scenario in (
            ("sugar", corpus_text("sugar_pipeline.tm"), SUGAR_PIPELINE_TMS),
            ("large", made.model, made.scenario)):
        (tmp_path / f"{name}.tm").write_text(model)
        (tmp_path / f"{name}.tms").write_text(scenario)
        files.append((tmp_path / f"{name}.tm", tmp_path / f"{name}.tms"))
    return files


class TestWalkOnce:
    @pytest.mark.parametrize("command", ["check", "events", "behavior", "simulate", "export"])
    def test_each_command_walks_the_tree_once(self, command, tmp_path, monkeypatch, capsys):
        walks = count_calls(monkeypatch, TMModel, "walk")
        for model, scenario in walk_once_models(tmp_path):
            walks[0] = 0
            argv = [command, str(model)] + ([str(scenario)] if command == "simulate" else [])
            # sugar_pipeline.tm declares no regions, so `tm behavior` fails on it.
            no_regions = command == "behavior" and model.name == "sugar.tm"
            assert main(argv) == (1 if no_regions else 0)
            capsys.readouterr()
            assert walks[0] == 1, model.name

    def test_link_looks_up_each_distinct_ref_once(self, monkeypatch):
        """The sugared ends resolve through ``normalize``'s table with the
        other refs: the expanded chain's, and the 2 ends of `route`."""
        text = corpus_text("sugar_pipeline.tm")
        model = tmflow.parse(text).model
        expanded = tmflow.desugar(tmflow.parse(text).model)
        refs = {ref for arcs in (model.arcs(), expanded.arcs()) for arc in arcs
                for ref in (arc.source, arc.target)}
        walks = count_calls(monkeypatch, TMModel, "walk")
        lookups = count_calls(monkeypatch, tmflow.model, "_lookup")
        linked = link(model)
        assert (walks[0], lookups[0], len(refs)) == (1, 8, 8)
        assert set(linked._resolved) == refs
