import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import (
    BehaviorGraph,
    Event,
    Interval,
    ModelError,
    Occurrence,
    Region,
    Scenario,
    Segmentation,
    StageKind,
    StageRef,
    Subdiagram,
    TokenSeed,
    Trace,
    TraceRecord,
    UnseededCreateError,
    conformance,
    desugar,
    infer_behavior,
    parse,
    parse_scenario,
    segment,
    simulate,
)
from tmflow import exprs
from tmflow.diagnostics import ValidationReport, error
from tmflow.jsonio import trace_to_jsonl
from tmflow.model import Linked

from conftest import corpus_doc, corpus_scenario, corpus_text, perfbench_gen


JOB_MODEL = ("thing job { n: int }\n"
             "machine a { stages Create, Process }\n"
             "flow f1: a.Create -> a.Process on job\n")


def run(model_name, scenario_name):
    doc = corpus_doc(model_name)
    scenario = corpus_scenario(scenario_name)
    trace = simulate(desugar(doc.model), scenario)
    return doc, scenario, trace


def occurrence_regions(doc, trace):
    return [o.region for o in segment(trace, doc.regions).occurrences]


class TestFrozenTraces:
    def test_mousetrap_record_sequence(self):
        _, _, trace = run("mousetrap.tm", "mousetrap.tms")
        assert [(r.step, r.arc) for r in trace.records] == [
            (1, "f1"), (2, "f2"), (3, "f3"), (4, "f4"), (5, "f5"),
            (6, "t1"), (7, "f6"), (8, "t2"), (9, "f7"),
        ]
        assert trace.meta.created == 3
        assert not trace.meta.step_limit_hit

    def test_formula_accumulates_to_six(self):
        _, _, trace = run("formula.tm", "formula.tms")
        [token] = trace.final_tokens
        assert token.attrs == {"sum": 6, "i": 4, "n": 3}
        assert token.at == StageRef(("out",), StageKind.PROCESS)
        # Three passes through the adder before the emit branch wins.
        assert [r.arc for r in trace.records].count("g5") == 2
        assert [r.arc for r in trace.records].count("g2") == 3
        assert [r.arc for r in trace.records] == [
            "g1", "g2", "g3", "g4", "g5", "g2", "g3", "g4", "g5",
            "g2", "g3", "g6", "g7", "g8",
        ]

    def test_paint_dry_trace(self):
        _, _, trace = run("paint_dry.tm", "paint_dry.tms")
        assert [(r.step, r.arc) for r in trace.records] == [
            (1, "p1"), (3, "p2"), (4, "p3"), (5, "p4"), (6, "d1"), (7, "d2")
        ]

    def test_paint_control_two_coats_then_dry(self):
        doc, _, trace = run("paint_control.tm", "paint_control.tms")
        [token] = trace.final_tokens
        assert token.attrs["quality"] == 7
        last_paint = max(
            r.step for r in trace.records if r.arc.startswith(("pc", "x1"))
        )
        first_dry = min(r.step for r in trace.records if r.arc.startswith("d"))
        assert last_paint < first_dry
        assert occurrence_regions(doc, trace) == [
            "R_paint", "R_check", "R_paint", "R_check", "R_dry"
        ]

    def test_stack_push_occurrences(self):
        doc, _, trace = run("stack.tm", "stack_push.tms")
        assert occurrence_regions(doc, trace) == ["E0", "E6", "E7", "E8", "E9"]

    def test_stack_pop_empty_returns_to_user(self):
        doc, _, trace = run("stack.tm", "stack_pop_empty.tms")
        assert occurrence_regions(doc, trace) == ["E0", "E1", "E2", "E3", "E0"]

    def test_stack_pop_success(self):
        doc, _, trace = run("stack.tm", "stack_pop.tms")
        assert occurrence_regions(doc, trace) == ["E0", "E1", "E2", "E4", "E5"]
        retrieved = next(
            t for t in trace.final_tokens if t.at and t.at.machine == ("retr",)
        )
        assert retrieved.attrs["top"] == 1


class TestStepSemantics:
    def test_transfer_without_outgoing_flow_consumes_token(self):
        model = parse(
            "thing t\n"
            "machine a { stages Create, Release, Transfer }\n"
            "flow a.Create -> a.Release on t\n"
            "flow a.Release -> a.Transfer on t\n"
        ).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("a",), StageKind.CREATE)),)
        )
        trace = simulate(model, scenario)
        assert trace.final_tokens == ()
        assert trace.meta.created == 1
        assert trace.meta.consumed == 1

    def test_non_transfer_dead_end_keeps_token(self):
        model = parse(
            "thing t\nmachine a { stages Create, Process }\n"
            "flow a.Create -> a.Process on t\n"
        ).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("a",), StageKind.CREATE)),)
        )
        trace = simulate(model, scenario)
        assert len(trace.final_tokens) == 1
        assert trace.meta.consumed == 0

    GATED = (
        "thing t\nthing go\n"
        "machine g { stages Create, Process, Release, Transfer }\n"
        "machine h { stages Create, Process }\n"
        "flow gc: g.Create -> g.Process on t\n"
        "flow gp: g.Process -> g.Release on t\n"
        "flow gr: g.Release -> g.Transfer on t\n"
        "flow hc: h.Create -> h.Process on go\n"
        "trigger tg: h.Process -> g.Release\n"
    )

    def test_trigger_gated_stage_waits_without_enablement(self):
        model = parse(self.GATED).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("g",), StageKind.CREATE)),),
            max_steps=20,
        )
        trace = simulate(model, scenario)
        [token] = trace.final_tokens
        assert token.at == StageRef(("g",), StageKind.RELEASE)
        assert "gr" not in [r.arc for r in trace.records]

    def test_trigger_enables_gated_stage_for_next_step(self):
        model = parse(self.GATED).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("g",), StageKind.CREATE)),),
            injections=(
                (3, TokenSeed("y", "go", StageRef(("h",), StageKind.CREATE))),
            ),
            max_steps=20,
        )
        trace = simulate(model, scenario)
        by_arc = {r.arc: r.step for r in trace.records}
        assert by_arc["tg"] == 5
        assert by_arc["gr"] == 6
        assert trace.final_tokens[0].at == StageRef(("g",), StageKind.TRANSFER) or (
            trace.meta.consumed == 1
        )

    def test_process_stage_holds_one_extra_step(self):
        model = parse(
            "thing t\nmachine a { stages Create, Process, Release }\n"
            "flow p1: a.Create -> a.Process on t\n"
            "flow p2: a.Process -> a.Release on t\n"
        ).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("a",), StageKind.CREATE)),)
        )
        trace = simulate(model, scenario)
        assert [(r.step, r.arc) for r in trace.records] == [(1, "p1"), (3, "p2")]

    def test_unseeded_create_trigger_raises(self):
        doc = corpus_doc("multiple_behaviors.tm")
        scenario = parse_scenario(
            "scenario bare {\n"
            '  token t of task at prep.Create { choice = "paint" }\n'
            "}\n"
        )
        with pytest.raises(UnseededCreateError):
            simulate(doc.model, scenario)

    @pytest.mark.parametrize("declare, minted", [
        ("token mousein_1 of smell at bait.Create", ["mousein_2", "shutsig_3"]),
        ("token s of smell at bait.Create\n"
         "  inject 1 token mousein_1 of smell at bait.Create",
         ["mousein_2", "mousein_3", "shutsig_4", "shutsig_5"]),
    ])
    def test_minted_ids_skip_declared_token_ids(self, declare, minted):
        doc = corpus_doc("mousetrap.tm")
        text = corpus_text("mousetrap.tms").replace(
            "token s of smell at bait.Create", declare)
        trace = simulate(doc.model, parse_scenario(text))
        assert [r.token for r in trace.records if r.arc in ("t1", "t2")] == minted
        declared = {r.token for r in trace.records if r.arc == "f1"}
        assert "mousein_1" in declared
        assert declared.isdisjoint(r.token for r in trace.records if r.arc == "f6")

    def test_step_limit_flagged(self):
        doc = corpus_doc("formula.tm")
        scenario = corpus_scenario("formula.tms")
        from dataclasses import replace

        trace = simulate(doc.model, replace(scenario, max_steps=5))
        assert trace.meta.step_limit_hit
        assert trace.meta.steps_used == 5

    def test_stop_condition_halts_early(self):
        doc = corpus_doc("formula.tm")
        scenario = parse_scenario(
            "scenario early {\n"
            "  max_steps 50\n"
            "  token a0 of acc at F.Create { sum = 0, i = 1, n = 3 }\n"
            "  action F.Process { sum := sum + i }\n"
            "  action F.Release { i := i + 1 }\n"
            "  stop when sum >= 3\n"
            "}\n"
        )
        trace = simulate(doc.model, scenario)
        [token] = trace.final_tokens
        assert token.attrs["sum"] == 3
        assert trace.meta.steps_used < 17

    def test_action_runs_on_a_token_created_at_its_stage(self):
        """A ``token``, an ``inject`` and a mint each create a token at a
        stage with an action: it runs on the new token, once."""
        model = parse(
            "thing job { n: int }\n"
            "machine a { stages Create, Process }\n"
            "machine b { stages Create, Process }\n"
            "flow fa: a.Create -> a.Process on job\n"
            "flow fb: b.Create -> b.Process on job\n"
            "trigger t: a.Process -> b.Create\n"
        ).model
        scenario = parse_scenario(
            "scenario s {\n"
            "  token j of job at a.Create { n = 0 }\n"
            "  inject 2 token k of job at a.Create { n = 10 }\n"
            "  mint b.Create of job { n = 100 }\n"
            "  action a.Create { n := n + 1 }\n"
            "  action b.Create { n := n + 1 }\n"
            "}\n"
        )
        trace = simulate(model, scenario)
        assert {token.id: token.attrs["n"] for token in trace.final_tokens} == {
            "j": 1, "k": 11, "job_1": 101, "job_2": 101}

    THREE_STAGES = ("thing job { n: int }\n"
                    "machine a { stages Create, Process, Release }\n"
                    "flow f1: a.Create -> a.Process on job\n"
                    "flow f2: a.Process -> a.Release on job\n")

    def test_stop_condition_that_fails_on_a_token_does_not_stop_the_run(self):
        """``m > 3`` raises GuardTypeError on a token with no ``m``: that
        token does not stop the run, and the next token is still tested."""
        model = parse(self.THREE_STAGES).model
        x = "  token x of job at a.Create { n = 1 }\n"
        y = "  token y of job at a.Create { n = 2, m = 5 }\n"

        def run_with(tokens, stop=""):
            return simulate(model, parse_scenario(f"scenario s {{\n{tokens}{stop}}}\n"))

        trace = run_with(x, "  stop when m > 3\n")
        assert trace == run_with(x)
        assert trace.meta.steps_used == 5 and len(trace.records) == 2
        assert run_with(x + y, "  stop when m > 3\n").meta.steps_used == 1

    @pytest.mark.parametrize("max_steps, inject, hit", [
        (3, "", True),  # step 3 moves x along f2
        (4, "", False),  # step 4 is quiet
        (4, "  inject 4 token y of job at a.Create { n = 2 }\n", True),  # step 4 admits y
    ])
    def test_limit_hit_only_when_the_last_step_moved(self, max_steps, inject, hit):
        scenario = parse_scenario(f"scenario s {{\n  max_steps {max_steps}\n"
                                  f"  token x of job at a.Create {{ n = 1 }}\n{inject}}}\n")
        trace = simulate(parse(self.THREE_STAGES).model, scenario)
        assert [(r.step, r.arc) for r in trace.records] == [(1, "f1"), (3, "f2")]
        assert trace.meta.steps_used == max_steps
        assert trace.meta.step_limit_hit is hit

    @pytest.mark.parametrize("placement, message", [
        ("token t of ghost at a.Create { n = 1 }",
         "scenario token 't' is of undeclared thing 'ghost'"),
        ("token j of job at a.Create { n = 1 }\n  inject 2 token t of ghost at a.Create",
         "scenario token 't' is of undeclared thing 'ghost'"),
        ("token j of job at a.Create { n = 1 }\n  mint a.Create of ghost { n = 2 }",
         "scenario mint at a.Create is of undeclared thing 'ghost'"),
    ], ids=["token", "inject", "mint"])
    def test_undeclared_thing_is_refused_before_the_first_step(self, placement, message,
                                                               monkeypatch):
        model = parse(JOB_MODEL).model
        scenario = parse_scenario(f"scenario s {{\n  {placement}\n}}\n")
        counts = counting_compiles(monkeypatch)
        with pytest.raises(ModelError, match=f"^{message}$"):
            simulate(model, scenario)
        assert counts["calls"] == 0

    def test_unresolved_stage_is_reported_before_the_thing(self):
        model = parse(JOB_MODEL).model
        scenario = parse_scenario("scenario s {\n"
                                  "  token j of job at a.Create\n"
                                  "  inject 5 token t of ghost at nowhere.Create\n}\n")
        with pytest.raises(ModelError, match="^no machine matches path 'nowhere'$"):
            simulate(model, scenario)

    def test_a_model_without_things_runs_tokens_of_any_thing(self):
        model = parse(JOB_MODEL.replace("thing job { n: int }\n", "")).model
        scenario = parse_scenario("scenario s {\n"
                                  "  token t of ghost at a.Create { n = 1 }\n"
                                  "  mint a.Create of phantom\n}\n")
        trace = simulate(model, scenario)
        assert [(r.step, r.arc, r.token) for r in trace.records] == [(1, "f1", "t")]

    NESTED_MINT = ("thing job { n: int }\n"
                   "machine top {\n"
                   "  machine a { stages Create, Process }\n"
                   "  machine b { stages Create, Process }\n"
                   "}\n"
                   "flow f1: a.Create -> a.Process on job\n"
                   "trigger t1: a.Process -> b.Create\n")

    @pytest.mark.parametrize("mints, message", [
        ("  mint a.Process of job { n = 5 }\n",
         "scenario mint at a.Process is not at a Create stage"),
        ("  mint top.b.Create of job { n = 2 }\n  mint b.Create of job { n = 3 }\n",
         "scenario mint at b.Create repeats the mint at top.b.Create"),
        ("  mint b.Create of job { n = 2 }\n  mint b.Create of job { n = 2 }\n",
         "scenario mint at b.Create repeats the mint at b.Create"),
    ], ids=["not-create", "two-spellings", "same-text"])
    def test_a_mint_no_trigger_can_read_is_refused_before_the_first_step(
            self, mints, message, monkeypatch):
        """Only a trigger into a Create stage reads a mint, and one stage
        has one mint: a mint elsewhere, or a second one at a stage however
        it is spelt, is a ModelError before the first step."""
        model = parse(self.NESTED_MINT).model
        scenario = parse_scenario("scenario s {\n  token x of job at a.Create { n = 1 }\n"
                                  f"{mints}}}\n")
        counts = counting_compiles(monkeypatch)
        with pytest.raises(ModelError, match=f"^{message}$"):
            simulate(model, scenario)
        assert counts["calls"] == 0

    HELD = (
        "thing t\nthing go\n"
        "machine a { stages Create, Process, Release, Transfer }\n"
        "machine b { stages Create, Process, Release }\n"
        "flow a1: a.Create -> a.Process on t\n"
        "flow a2: a.Process -> a.Release on t\n"
        "flow a3: a.Release -> a.Transfer on t\n"
        "flow b1: b.Create -> b.Process on go\n"
        "trigger held: a.Process -> b.Release\n"
        "trigger waiting: a.Release -> b.Release\n"
        "trigger gate: b.Process -> a.Release\n"
    )

    def test_held_and_waiting_tokens_fire_once_per_arrival(self):
        """A token held at a Process stage, or waiting at a gated stage,
        fires each outgoing trigger only the step after it arrives."""
        model = parse(self.HELD).model
        create = StageRef(("a",), StageKind.CREATE)
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", create),),
            injections=((4, TokenSeed("y", "t", create)),
                        (12, TokenSeed("g", "go", StageRef(("b",), StageKind.CREATE)))),
            max_steps=30,
        )
        trace = simulate(model, scenario)
        steps = {(r.arc, r.token): [] for r in trace.records}
        for r in trace.records:
            steps[(r.arc, r.token)].append(r.step)
        assert steps[("held", "x")] == [2] and steps[("a2", "x")] == [3]
        assert steps[("held", "y")] == [6] and steps[("a2", "y")] == [7]
        # both wait at the gated Release until the trigger from b marks it
        assert steps[("waiting", "x")] == [4] and steps[("waiting", "y")] == [8]
        assert steps[("gate", "g")] == [14]
        assert steps[("a3", "x")] == steps[("a3", "y")] == [15]

    FORK = (
        "thing t\n"
        "machine a { stages Create, Release, Transfer }\n"
        "machine b { stages Process }\n"
        "machine c { stages Process }\n"
        "flow a.Create -> a.Release on t\n"
        "flow a.Release -> a.Transfer on t\n"
        "flow left: a.Transfer -> b.Process on t\n"
        "flow right: a.Transfer -> c.Process on t\n"
    )

    @pytest.mark.parametrize("policy", ["deterministic", "seeded-random"])
    @pytest.mark.parametrize("late,early", [(1, 0), (1, -3), (1, 1)])
    def test_injections_enter_in_step_order(self, policy, late, early):
        """Injections due by the same loop step enter by their declared
        step, then as declared: ``inject 1`` before ``inject 0`` enters
        second, as if declared in step order."""
        model = parse(self.FORK).model
        create = StageRef(("a",), StageKind.CREATE)
        a, b = TokenSeed("a", "t", create), TokenSeed("b", "t", create)

        def run_with(injections):
            return simulate(model, Scenario(policy=policy, seed=7, max_steps=8,
                                            injections=injections))

        trace = run_with(((late, a), (early, b)))
        first = "a" if late == early else "b"
        assert [r.token for r in trace.records if r.step == 2][0] == first
        assert trace.final_tokens[0].id == first
        assert trace == run_with(tuple(sorted(((late, a), (early, b)),
                                              key=lambda item: item[0])))

    def test_scenario_file_injections_enter_in_step_order(self):
        scenario = parse_scenario(
            "scenario s {\n"
            "  inject 1 token a of t at a.Create\n"
            "  inject 0 token b of t at a.Create\n"
            "}\n"
        )
        trace = simulate(parse(self.FORK).model, scenario)
        assert [r.token for r in trace.records if r.step == 2] == ["b", "a"]
        assert [token.id for token in trace.final_tokens] == ["b", "a"]

    def test_deterministic_policy_picks_first_declared_flow(self):
        model = parse(
            "thing t { n: int }\n"
            "machine a { stages Create, Release, Transfer }\n"
            "machine b { stages Transfer }\n"
            "machine c { stages Transfer }\n"
            "flow a.Create -> a.Release on t\n"
            "flow a.Release -> a.Transfer on t\n"
            "flow left: a.Transfer -> b.Transfer on t\n"
            "flow right: a.Transfer -> c.Transfer on t\n"
        ).model
        scenario = Scenario(
            tokens=(TokenSeed("x", "t", StageRef(("a",), StageKind.CREATE)),)
        )
        trace = simulate(model, scenario)
        arcs = [r.arc for r in trace.records]
        assert "left" in arcs and "right" not in arcs


class TestDeterminism:
    @pytest.mark.parametrize(
        "model_name,scenario_name",
        [
            ("mousetrap.tm", "mousetrap.tms"),
            ("formula.tm", "formula.tms"),
            ("stack.tm", "stack_push.tms"),
            ("stack.tm", "stack_pop_empty.tms"),
            ("paint_control.tm", "paint_control.tms"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, model_name, scenario_name):
        first = trace_to_jsonl(run(model_name, scenario_name)[2])
        second = trace_to_jsonl(run(model_name, scenario_name)[2])
        assert first == second

    def test_seeded_random_policy_is_reproducible(self):
        model = parse(
            "thing t\n"
            "machine a { stages Create, Release, Transfer }\n"
            "machine b { stages Transfer }\n"
            "machine c { stages Transfer }\n"
            "flow a.Create -> a.Release on t\n"
            "flow a.Release -> a.Transfer on t\n"
            "flow left: a.Transfer -> b.Transfer on t\n"
            "flow right: a.Transfer -> c.Transfer on t\n"
        ).model

        def once(seed):
            scenario = Scenario(
                policy="seeded-random",
                seed=seed,
                tokens=(TokenSeed("x", "t", StageRef(("a",), StageKind.CREATE)),),
            )
            return trace_to_jsonl(simulate(model, scenario))

        assert once(3) == once(3)
        chosen = {
            arc
            for seed in range(20)
            for arc in (
                r.arc
                for r in simulate(
                    model,
                    Scenario(
                        policy="seeded-random",
                        seed=seed,
                        tokens=(
                            TokenSeed("x", "t",
                                      StageRef(("a",), StageKind.CREATE)),
                        ),
                    ),
                ).records
            )
        }
        assert {"left", "right"} <= chosen

    @pytest.mark.parametrize(
        "model_name,scenario_name",
        [
            ("mousetrap.tm", "mousetrap.tms"),
            ("formula.tm", "formula.tms"),
            ("stack.tm", "stack_push.tms"),
            ("stack.tm", "stack_pop.tms"),
            ("stack.tm", "stack_pop_empty.tms"),
            ("paint_dry.tm", "paint_dry.tms"),
            ("paint_control.tm", "paint_control.tms"),
            ("multiple_behaviors.tm", "multiple_behaviors.tms"),
        ],
    )
    def test_tokens_are_conserved(self, model_name, scenario_name):
        trace = run(model_name, scenario_name)[2]
        assert trace.meta.created == trace.meta.consumed + len(trace.final_tokens)


class TestSegmentation:
    def test_boundary_records_become_notes(self):
        doc, _, trace = run("mousetrap.tm", "mousetrap.tms")
        seg = segment(trace, doc.regions)
        # f2, t1 and t2 cross region boundaries and belong to no region.
        assert len(seg.unattributed) == 3
        assert seg.unattributed == tuple(r for r in trace.records if r.arc in {"f2", "t1", "t2"})

    def test_intervals_cover_maximal_runs(self):
        doc, _, trace = run("formula.tm", "formula.tms")
        seg = segment(trace, doc.regions)
        assert [(o.region, o.interval.start, o.interval.duration)
                for o in seg.occurrences] == [
            ("add", 1, 1), ("bump", 4, 1), ("add", 6, 1), ("bump", 9, 1),
            ("add", 11, 1), ("bump", 14, 1), ("emit", 16, 2),
        ]

    def test_empty_trace_has_no_occurrences(self, mousetrap):
        from tmflow import Trace

        seg = segment(Trace(), mousetrap.regions)
        assert seg.occurrences == ()


class TestConformance:
    def graph(self):
        return BehaviorGraph(
            events=(Event("A", "ra"), Event("B", "rb"), Event("C", "rc")),
            edges=(("A", "B"), ("A", "C")),
            initial=("A",),
        )

    def occ(self, *regions):
        return [
            Occurrence(region, Interval(i + 1, 1))
            for i, region in enumerate(regions)
        ]

    def test_conformant_walk(self):
        assert conformance(self.occ("ra", "rb"), self.graph()).ok

    def test_fork_allows_edges_from_any_earlier_event(self):
        # B and C both follow A; there is no B -> C edge, yet the serial
        # observation A, B, C is a valid interleaving of the fork.
        assert conformance(self.occ("ra", "rb", "rc"), self.graph()).ok

    def test_not_initial(self):
        report = conformance(self.occ("rb"), self.graph())
        assert [d.code for d in report.errors] == ["NOT_INITIAL"]

    def test_missing_edge_is_nonconformant(self):
        report = conformance(self.occ("ra", "rc", "ra"), self.graph())
        assert [d.code for d in report.errors] == ["NONCONFORMANT"]

    def test_stack_skip_is_nonconformant(self, stack):
        graph = infer_behavior(stack.model, stack.regions)
        bad = self.occ("E0", "E9")
        report = conformance(bad, graph)
        assert [d.code for d in report.errors] == ["NONCONFORMANT"]

    def test_corpus_traces_conform(self):
        for model_name, scenario_name in [
            ("mousetrap.tm", "mousetrap.tms"),
            ("formula.tm", "formula.tms"),
            ("stack.tm", "stack_push.tms"),
            ("stack.tm", "stack_pop.tms"),
            ("stack.tm", "stack_pop_empty.tms"),
            ("paint_control.tm", "paint_control.tms"),
            ("multiple_behaviors.tm", "multiple_behaviors.tms"),
        ]:
            doc, _, trace = run(model_name, scenario_name)
            graph = infer_behavior(doc.model, doc.regions)
            seg = segment(trace, doc.regions)
            assert conformance(seg.occurrences, graph).ok, model_name


# ---------------------------------------------------------------------------
# Oracles: the first segment and conformance loops, kept as references for
# the run-length segmentation and the predecessor-map conformance check.

def reference_segment(trace, regions):
    arc_region = {}
    for region in regions:
        for arc_id in region.body.arcs:
            arc_region[arc_id] = region.id
    unattributed = []
    mapped = []
    for record in trace.records:
        region_id = arc_region.get(record.arc)
        if region_id is None:
            unattributed.append(record)
        else:
            mapped.append((region_id, record.step))
    occurrences = []
    for region_id, step in mapped:
        if occurrences and occurrences[-1].region == region_id:
            last = occurrences[-1]
            duration = step - last.interval.start + 1
            occurrences[-1] = Occurrence(
                region_id, Interval(last.interval.start, duration)
            )
        else:
            occurrences.append(Occurrence(region_id, Interval(step, 1)))
    return Segmentation(tuple(occurrences), tuple(unattributed))


def reference_conformance(occurrences, graph):
    """Scans every earlier occurrence for an edge (quadratic)."""
    report = ValidationReport()
    by_region = graph.events_by_region()
    edges = set(graph.edges)
    seen = []
    for index, occ in enumerate(occurrences):
        event_id = by_region.get(occ.region)
        steps = (
            f"steps {occ.interval.start}.."
            f"{occ.interval.start + occ.interval.duration - 1}"
        )
        if event_id is None:
            report.diagnostics.append(
                error("NONCONFORMANT",
                      f"no event covers region '{occ.region}' ({steps})")
            )
            return report
        if index == 0:
            if event_id not in graph.initial:
                report.diagnostics.append(
                    error("NOT_INITIAL",
                          f"trace starts at non-initial event '{event_id}' ({steps})")
                )
                return report
        else:
            prev = seen[-1]
            if not any((earlier, event_id) in edges for earlier in seen):
                report.diagnostics.append(
                    error(
                        "NONCONFORMANT",
                        f"transition {prev} -> {event_id} has no edge in the "
                        f"behavior graph ({steps})",
                    )
                )
                return report
        seen.append(event_id)
    return report


@st.composite
def graphs(draw):
    """A behavior graph over events E0..En-1 on regions r0..rn-1, some
    regions named by two events (the first one covers the region)."""
    n = draw(st.integers(1, 6))
    regions = [f"r{draw(st.integers(0, n - 1))}" if draw(st.booleans()) else f"r{i}"
               for i in range(n)]
    events = tuple(Event(f"E{i}", regions[i]) for i in range(n))
    pairs = [(f"E{i}", f"E{j}") for i in range(n) for j in range(n)]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    initial = tuple(draw(st.lists(st.sampled_from([e.id for e in events]),
                                  max_size=3, unique=True)))
    return BehaviorGraph(events, edges, initial)


@st.composite
def runs(draw):
    """A graph and an occurrence sequence: a conforming walk, then one of a
    conforming end, a non-initial start, an uncovered region, an event
    no earlier one has an edge into, or any region at all."""
    graph = draw(graphs())
    covering = graph.events_by_region()
    region_of = {event_id: region for region, event_id in covering.items()}
    successors = {}
    for src, dst in graph.edges:
        successors.setdefault(src, set()).add(dst)
    kind = draw(st.sampled_from(
        ["conforming", "not-initial", "uncovered", "missing-edge", "any"]))

    walk = []
    starts = [e for e in graph.initial if e in region_of]
    if starts and kind != "not-initial":
        walk.append(draw(st.sampled_from(starts)))
        for _ in range(draw(st.integers(0, 12))):
            reachable = sorted({d for e in walk for d in successors.get(e, ())}
                               & set(region_of))
            if not reachable:
                break
            walk.append(draw(st.sampled_from(reachable)))
    regions = [region_of[e] for e in walk]
    events = sorted(region_of)
    if kind == "not-initial":
        others = [e for e in events if e not in graph.initial]
        if others:
            regions = [region_of[draw(st.sampled_from(others))]]
    elif kind == "uncovered":
        regions.insert(draw(st.integers(0, len(regions))), "nowhere")
    elif kind == "missing-edge":
        reachable = {d for e in walk for d in successors.get(e, ())}
        unlicensed = [e for e in events if e not in reachable]
        if walk and unlicensed:
            regions.append(region_of[draw(st.sampled_from(unlicensed))])
    elif kind == "any":
        regions += draw(st.lists(st.sampled_from(sorted(covering) + ["nowhere"]),
                                 max_size=8))
    regions += draw(st.lists(st.sampled_from(sorted(covering)), max_size=3))
    start = 1
    occurrences = []
    for region in regions:
        duration = draw(st.integers(1, 3))
        occurrences.append(Occurrence(region, Interval(start, duration)))
        start += draw(st.integers(0, 3))
    return graph, occurrences


REF = StageRef(("m",), StageKind.CREATE)


class TestOracles:
    @settings(max_examples=400, deadline=None)
    @given(runs())
    def test_conformance_matches_the_full_scan(self, run):
        graph, occurrences = run
        assert conformance(occurrences, graph).diagnostics == \
            reference_conformance(occurrences, graph).diagnostics

    def test_generated_runs_cover_every_outcome(self):
        """The oracle test sees each verdict the check can give."""
        outcomes = set()

        @settings(max_examples=300, deadline=None)
        @given(runs())
        def collect(run):
            graph, occurrences = run
            report = conformance(occurrences, graph)
            message = report.diagnostics[0].message if report.diagnostics else "ok"
            outcomes.add(message.split(" ")[0])

        collect()
        assert outcomes == {"ok", "trace", "no", "transition"}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_segment_matches_the_grouping(self, data):
        arcs = ["a", "b", "c", "d", "e"]
        owner = data.draw(st.lists(st.sampled_from(["R", "S", "T", None]),
                                   min_size=len(arcs), max_size=len(arcs)))
        regions = [
            Region(name, Subdiagram(frozenset(), frozenset(
                arc for arc, o in zip(arcs, owner) if o == name)))
            for name in ("R", "S", "T")
        ]
        step, records = 1, []
        for arc in data.draw(st.lists(st.sampled_from(arcs), max_size=30)):
            step += data.draw(st.integers(0, 2))
            records.append(TraceRecord(step, arc, "t", REF, REF))
        trace = Trace(records=tuple(records))
        assert segment(trace, regions) == reference_segment(trace, regions)


# ---------------------------------------------------------------------------
# Compiled plans: each expression is compiled once per run, before the
# first step, and the step loop calls only what was compiled.

def counting_compiles(monkeypatch) -> Counter:
    """Count what ``simulate`` compiles ("guards", "actions") and the
    calls of the guards it compiled ("calls"); "before first call" is
    the number of guards compiled when the first one was called.  A
    call of ``exprs.eval_guard`` fails the test."""
    module = sys.modules["tmflow.simulate"]
    counts = Counter()

    def compile_guard(node):
        counts["guards"] += 1
        guard = exprs.compile_guard(node)

        def counted(attrs):
            if not counts["calls"]:
                counts["before first call"] = counts["guards"]
            counts["calls"] += 1
            return guard(attrs)
        return counted

    def compile_actions(stmts):
        counts["actions"] += 1
        return exprs.compile_actions(stmts)

    def eval_guard(node, attrs):
        raise AssertionError("simulate evaluated a guard it had not compiled")

    monkeypatch.setattr(module, "compile_guard", compile_guard)
    monkeypatch.setattr(module, "compile_actions", compile_actions)
    monkeypatch.setattr(exprs, "eval_guard", eval_guard)
    return counts


class TestCompiledPlans:
    def test_each_guard_text_compiles_once(self, monkeypatch):
        chain = perfbench_gen()["sim_tokens"](3)
        doc, scenario = parse(chain.model), parse_scenario(chain.scenario)
        texts = {arc.guard for arc in doc.model.arcs() if arc.guard is not None}
        expected = simulate(doc.model, scenario)
        counts = counting_compiles(monkeypatch)
        assert simulate(doc.model, scenario) == expected
        assert counts["guards"] == len(texts) == 56
        assert counts["before first call"] == counts["guards"]
        assert counts["actions"] == len({ref for ref, _ in scenario.actions}) == 16
        assert counts["calls"] == 15_660  # what the AST interpreter evaluated

    def test_each_scenario_stage_resolves_once(self, monkeypatch):
        """After linking, ``simulate`` resolves each stage the scenario
        names once: every token, inject, mint and action."""
        chain = perfbench_gen()["sim_tokens"](3)
        doc, scenario = parse(chain.model), parse_scenario(chain.scenario)
        expected = simulate(doc.model, scenario)  # links the model
        calls = Counter()
        normalize = Linked.normalize

        def counted(self, ref):
            calls["normalize"] += 1
            return normalize(self, ref)

        monkeypatch.setattr(Linked, "normalize", counted)
        assert simulate(doc.model, scenario) == expected
        placed = (len(scenario.tokens), len(scenario.injections),
                  len(scenario.mints), len(scenario.actions))
        assert placed == (0, 120, 15, 16)
        assert calls["normalize"] == sum(placed) == 151

    def test_stop_condition_and_action_lists_compile_once(self, monkeypatch):
        scenario = parse_scenario(
            "scenario s {\n  max_steps 50\n"
            "  token a0 of acc at F.Create { sum = 0, i = 1, n = 3 }\n"
            "  action F.Process { sum := sum + i }\n"
            "  action F.Process { sum := sum + 0 }\n"
            "  action F.Release { i := i + 1 }\n"
            "  stop when sum >= 3\n}\n"
        )
        counts = counting_compiles(monkeypatch)
        trace = simulate(corpus_doc("formula.tm").model, scenario)
        assert trace.final_tokens[0].attrs["sum"] == 3
        assert counts["guards"] == 3  # "i <= n", "i > n" and the stop condition
        assert counts["actions"] == 2  # one per stage with actions
        assert counts["before first call"] == 3

    def test_work_grows_linearly_in_tokens(self, monkeypatch):
        """Trace records and guard evaluations at 2N injected tokens are at
        most about twice those at N.  (Counts, not timings, which are too
        noisy on a shared machine.)"""
        gen = perfbench_gen()
        n = gen["SIM_TOKENS"]

        def work(tokens):
            monkeypatch.setitem(gen["sim_tokens"].__globals__, "SIM_TOKENS", tokens)
            chain = gen["sim_tokens"](3)
            counts = counting_compiles(monkeypatch)
            trace = simulate(parse(chain.model).model, parse_scenario(chain.scenario))
            assert len(trace.records) == len(chain.expected["records"])
            return len(trace.records), counts["calls"], counts["guards"]

        records_n, calls_n, guards_n = work(n)
        records_2n, calls_2n, guards_2n = work(2 * n)
        assert 1.9 <= records_2n / records_n <= 2.1
        assert 1.9 <= calls_2n / calls_n <= 2.1
        assert guards_2n == guards_n


def test_trace_record_is_a_slotted_frozen_named_tuple():
    other = StageRef(("m", "n"), StageKind.TRANSFER)
    record = TraceRecord(1, "f", "t", REF, other)
    twin = TraceRecord(1, "f", "t", StageRef(("m",), StageKind.CREATE), other)
    assert record == twin and hash(record) == hash(twin)
    assert record != record._replace(step=2)
    assert record._replace(token="u") == TraceRecord(1, "f", "u", REF, other)
    assert TraceRecord._fields == ("step", "arc", "token", "source", "target")
    assert repr(record) == (f"TraceRecord(step=1, arc='f', token='t', "
                            f"source={REF!r}, target={other!r})")
    with pytest.raises(AttributeError):
        record.step = 2
    assert not hasattr(record, "__dict__")


def test_the_step_loop_builds_records_without_a_call():
    """Each move appends one record built in C: a run makes no
    Python-level call into a ``TraceRecord`` constructor, while a record
    built by its class is seen making one."""
    constructors = {f.__code__ for f in (TraceRecord.__new__, TraceRecord.__init__)
                    if hasattr(f, "__code__")}
    chain = perfbench_gen()["sim_tokens"](3)
    doc, scenario = parse(chain.model), parse_scenario(chain.scenario)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls["constructor" if frame.f_code in constructors else "other"] += 1

    sys.setprofile(profile)
    try:
        trace = simulate(doc.model, scenario)
        seen = calls.copy()
        TraceRecord(1, "f", "t", REF, REF)
    finally:
        sys.setprofile(None)
    assert len(trace.records) == len(chain.expected["records"]) == 9_900
    assert seen["constructor"] == 0 and seen["other"] > 0
    assert calls["constructor"] == 1
