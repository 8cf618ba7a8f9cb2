"""Linking a model once: sugar expansion, suffix resolution, parsed
guards and the unresolved-arc policy shared by every analysis."""

import sys
from dataclasses import replace

import pytest

import tmflow
from tmflow import (
    StageKind,
    StageNotDeclaredError,
    StageRef,
    TMModel,
    UnknownMachineError,
    parse_model,
)
from tmflow.cli import main
from tmflow.dot import model_to_dot
from tmflow.model import Linked, link

from conftest import CORPUS, corpus_text

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
        model = parse_model(
            "machine outer { stages Create, Process\n"
            "  machine inner { stages Create, Process } }\n"
            "flow f1: inner.Create -> inner.Process\n"
            "trigger t1: outer.Process -> inner.Create\n"
        )
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
        linked = link(parse_model(BROKEN))
        assert [(arc.id, str(exc)) for arc, exc in linked.unresolved] == [
            ("g", "no machine matches path 'nowhere'"),
            ("f2", "no machine matches path 'ghost'"),
            ("t1", "machine 'b' does not declare a Create stage"),
        ]
        assert [arc.id for arc in linked.flows] == ["f1", "f3"]
        assert linked.triggers == ()

    def test_require_raises_the_first_unresolved_arc(self):
        with pytest.raises(UnknownMachineError, match="'nowhere'"):
            link(parse_model(BROKEN)).require()

    def test_link_is_kept_on_the_model(self):
        model = parse_model(BROKEN)
        twin = parse_model(BROKEN)
        assert link(model) is link(model)
        assert twin == model and link(twin) is not link(model)

    def test_guards_are_parsed_once_per_text(self):
        model = parse_model(
            "thing job { n: int }\n"
            "machine a { stages Create, Process, Release }\n"
            "flow f1: a.Create -> a.Process on job when n > 1\n"
            "flow f2: a.Process -> a.Release on job when n > 1\n"
            "trigger t1: a.Process -> a.Create when n = 0\n"
        )
        exprs = link(model).model._exprs
        assert exprs is model._exprs
        assert list(exprs) == [("guard", "n > 1"), ("guard", "n = 0")]
        assert exprs["guard", "n = 0"] == tmflow.exprs.parse_guard("n = 0")

    def test_normalize_matches_public_resolution(self):
        model = parse_model(
            "machine x { stages Create\n  machine y { stages Create } }\n"
            "machine z { machine y2 { stages Create } }\n"
        )
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


class TestUnresolvedPolicy:
    def test_validate_reports_unresolved_before_other_errors(self):
        report = tmflow.validate(parse_model(BROKEN))
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
            analysis(parse_model(BROKEN))


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
    """Each analysis walks the machine tree a fixed number of times, so
    no analysis re-resolves suffix paths per arc (which made them
    quadratic in model size)."""
    walk = TMModel.walk
    count = 0

    def counting_walk(self):
        nonlocal count
        count += 1
        return walk(self)

    monkeypatch.setattr(TMModel, "walk", counting_walk)

    def walks(n):
        nonlocal count
        model_text, scenario_text = chain(n)
        doc = tmflow.parse(model_text)
        scenario = tmflow.parse_scenario(scenario_text)
        counts = []
        for run in (lambda: tmflow.validate(doc.model),
                    lambda: tmflow.infer_behavior(doc.model, doc.regions),
                    lambda: tmflow.simulate(doc.model, scenario)):
            count = 0
            result = run()
            counts.append(count)
        assert tmflow.validate(doc.model).ok
        assert result.final_tokens[0].attrs["hop"] == n
        return counts

    assert walks(20) == walks(40)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call is counted; returns the count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_guard_parses(monkeypatch, name="parse_guard"):
    """Count calls of ``exprs.parse_guard`` (or of the ``exprs`` parser
    ``name``) through every tmflow module that imported it."""
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
        assert tmflow.validate(doc.model).ok  # links and parses the arc guards
        guards = count_guard_parses(monkeypatch)
        statements = count_guard_parses(monkeypatch, "parse_statements")
        scenario = tmflow.parse_scenario(scenario_text)
        assert scenario.stop == "hop > 99" and len(scenario.actions) == 6
        for run in (scenario, replace(scenario, seed=3)):
            trace = tmflow.simulate(doc.model, run)
            assert trace.final_tokens[0].attrs["hop"] == 6
        assert (statements[0], guards[0]) == (0, 0)

    def test_each_file_is_lexed_once(self, monkeypatch):
        """parse and parse_scenario lex their file once, guards and
        actions included; validate and simulate lex nothing."""
        model_text, scenario_text = chain(6)
        lexes = count_guard_parses(monkeypatch, "tokenize")
        doc = tmflow.parse(model_text)
        assert lexes[0] == 1
        scenario = tmflow.parse_scenario(scenario_text)
        assert lexes[0] == 2
        counts = [count_guard_parses(monkeypatch, name)
                  for name in ("parse_guard", "parse_statements")]
        assert tmflow.validate(doc.model).ok
        trace = tmflow.simulate(doc.model, scenario)
        assert trace.final_tokens[0].attrs["hop"] == 6
        assert [lexes[0]] + [count[0] for count in counts] == [2, 0, 0]

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

    def test_export_and_census_parse_no_guard(self, monkeypatch):
        doc = tmflow.parse(chain(4)[0])
        parses = count_guard_parses(monkeypatch)
        model_to_dot(doc.model)
        tmflow.enumerate_subdiagrams(doc.model, 2)
        assert parses[0] == 0
