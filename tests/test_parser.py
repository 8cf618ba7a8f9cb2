import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmflow
from tmflow import (
    Document,
    FlowArc,
    Machine,
    StageKind,
    StageRef,
    ThingDecl,
    TMModel,
    TMParseError,
    TriggerArc,
    parse,
    parse_scenario,
    parse_with_diagnostics,
    serialize,
)
from tmflow import parser as parser_module
from tmflow.diagnostics import Diagnostic, SourceSpan
from tmflow.exprs import tokenize

from conftest import (
    CORPUS,
    MODEL_FILES,
    SCENARIO_FILES,
    corpus_text,
    fuzz_texts,
    mutated_models,
    perfbench_gen,
)


class TestRoundTrip:
    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
    def test_corpus_file_round_trips(self, path):
        doc = parse(path.read_text(encoding="utf-8"))
        again = parse(serialize(doc))
        assert again == doc

    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
    def test_serialization_is_a_fixed_point(self, path):
        doc = parse(path.read_text(encoding="utf-8"))
        once = serialize(doc)
        assert serialize(parse(once)) == once

    def test_golden_canonical_form(self):
        doc = parse(corpus_text("sugar_pipeline.tm"))
        assert serialize(doc) == (
            "thing parcel\n"
            "\n"
            "machine sender {\n"
            "  stages Create, Release\n"
            "}\n"
            "\n"
            "machine receiver {\n"
            "  stages Process\n"
            "}\n"
            "\n"
            "flow s1: sender.Create -> sender.Release on parcel\n"
            "flow route: sender => receiver on parcel label \"shipment\"\n"
            "flow r1: receiver.Receive -> receiver.Process on parcel\n"
        )

    def test_empty_document(self):
        assert serialize(parse("")) == "\n"
        assert parse(serialize(Document())) == Document()


class TestGrammar:
    def test_machine_display_name(self):
        model = parse('machine m "Main Loop" { stages Create }').model
        assert model.machines[0].name == "Main Loop"

    def test_nested_machines(self):
        model = parse(
            "machine outer {\n  stages Create\n  machine inner { stages Process }\n}"
        ).model
        assert model.machines[0].submachines[0].id == "inner"

    def test_auto_arc_ids_are_positional(self):
        model = parse(
            "machine a { stages Create, Process }\n"
            "flow a.Create -> a.Process\n"
            "trigger a.Process -> a.Create\n"
        ).model
        assert model.flows[0].id == "_f1" and model.flows[0].auto_id
        assert model.triggers[0].id == "_t1" and model.triggers[0].auto_id

    def test_guard_text_is_kept_verbatim(self):
        model = parse(
            "machine a { stages Create, Process }\n"
            'flow a.Create -> a.Process when n  <=  3 label "go"\n'
        ).model
        assert model.flows[0].guard == "n  <=  3"
        assert model.flows[0].label == "go"

    def test_a_number_label_is_text(self):
        doc = parse("machine a { stages Create, Process }\n"
                    "flow f: a.Create -> a.Process label 3\n")
        assert doc.model.flows[0].label == "3"
        assert 'flow f: a.Create -> a.Process label "3"\n' in serialize(doc)
        assert parse(serialize(doc)) == doc

    def test_sugared_arc_keeps_machine_refs(self):
        model = parse(
            "machine a { stages Create }\nmachine b { stages Process }\n"
            "flow x: a => b on t"
        ).model
        arc = model.flows[0]
        assert arc.sugared
        assert arc.source == StageRef(("a",), None)
        assert arc.target == StageRef(("b",), None)

    def test_comments_and_blank_lines_ignored(self):
        model = parse("# heading\n\nmachine a { stages Create } # tail\n").model
        assert model.machines[0].id == "a"

    def test_crlf_input(self):
        model = parse("machine a {\r\n  stages Create\r\n}\r\n").model
        assert model.machines[0].stages == (StageKind.CREATE,)

    def test_regions_and_behavior_sections(self):
        doc = parse(corpus_text("one_lane_street.tm"))
        assert [r.id for r in doc.regions] == ["am", "pm"]
        assert doc.behavior is not None
        assert doc.behavior.initial == ("morning",)
        assert doc.behavior.events[0].interval == tmflow.Interval(0, 12)

    def test_scenario_parsing(self):
        scenario = parse_scenario(
            "scenario demo {\n"
            "  policy seeded-random\n"
            "  seed 7\n"
            "  max_steps 12\n"
            '  token a of t at m.Create { n = 3, s = "x" }\n'
            "  inject 4 token b of t at m.Create\n"
            "  mint m.Create of t { n = 0 }\n"
            "  action m.Process { n := n + 1 }\n"
            "  stop when n > 5\n"
            "}\n"
        )
        assert scenario.policy == "seeded-random"
        assert scenario.seed == 7
        assert scenario.max_steps == 12
        assert scenario.tokens[0].attrs == {"n": 3, "s": "x"}
        assert scenario.injections[0][0] == 4
        assert scenario.mints[0][1] == "t"
        assert scenario.stop == "n > 5"

    def test_the_last_policy_wins(self):
        scenario = parse_scenario(
            "scenario s {\n  policy seeded-random\n  policy deterministic\n}\n")
        assert scenario.policy == "deterministic"


class TestDiagnostics:
    def diags(self, text):
        _, diagnostics = parse_with_diagnostics(text)
        return diagnostics

    def test_duplicate_machine_id(self):
        diags = self.diags("machine a { stages Create }\nmachine a { stages Create }")
        assert any(d.code == "DUP_ID" for d in diags)

    def test_duplicate_arc_id(self):
        diags = self.diags(
            "machine a { stages Create, Process }\n"
            "flow f: a.Create -> a.Process\nflow f: a.Create -> a.Process\n"
        )
        assert any(d.code == "DUP_ID" for d in diags)

    def test_self_loop_arc(self):
        diags = self.diags(
            "machine a { stages Process }\nflow a.Process -> a.Process\n"
        )
        assert any(d.code == "SELF_LOOP" for d in diags)

    @pytest.mark.parametrize("arc, message", [
        ("trigger a.Process -> b.Create on t",
         "3:31: error[SYNTAX]: unexpected trailing input 'on'"),
        ("trigger a => b", "3:9: error[UNKNOWN_STAGE]: 'a' is not a stage "
                           "(one of Create, Process, Release, Receive, Transfer)"),
        ("trigger t1: a.Process -> a.Process",
         "3:13: error[SELF_LOOP]: trigger source and target are the same stage"),
        ("flow f: a => a", "3:9: error[SELF_LOOP]: flow source and target are the same stage"),
    ])
    def test_flow_only_forms_and_keyword_in_messages(self, arc, message):
        diags = self.diags("machine a { stages Create, Process }\n"
                           "machine b { stages Create, Transfer }\n" + arc + "\n")
        assert [str(d) for d in diags] == [message]

    def test_unknown_stage_keyword(self):
        diags = self.diags("machine a { stages Creat }")
        assert any(d.code == "UNKNOWN_STAGE" for d in diags)

    def test_guard_syntax_error(self):
        diags = self.diags(
            "machine a { stages Create, Process }\n"
            "flow a.Create -> a.Process when n +\n"
        )
        assert any(d.code == "GUARD_SYNTAX" for d in diags)

    def test_span_points_at_offending_token(self):
        diags = self.diags("machine a { stages Create }\nmachine a { stages Create }")
        dup = next(d for d in diags if d.code == "DUP_ID")
        assert dup.span.line == 2
        assert dup.span.column == 9

    def test_recovery_reports_multiple_errors(self):
        diags = self.diags(
            "machine a { stages Creat }\n"
            "machine b { stages Processs }\n"
        )
        assert len([d for d in diags if d.severity == "error"]) >= 2

    def test_parse_raises_with_diagnostics(self):
        with pytest.raises(TMParseError) as exc:
            parse("machine {")
        assert exc.value.diagnostics

    def test_unterminated_string(self):
        diags = self.diags('machine a "oops { stages Create }')
        assert any(d.code == "SYNTAX" for d in diags)

    def test_reserved_stage_name_as_id(self):
        diags = self.diags("machine Create { stages Process }")
        assert any(d.severity == "error" for d in diags)

    def test_backslash_newline_does_not_continue_a_string(self):
        diags = self.diags(
            'machine a "x\\\ny" { stages Create }\n'
            "machine b { stages Bogus }\n"
        )
        assert [str(d) for d in diags] == [
            "1:11: error[SYNTAX]: unterminated string literal"
        ]

    def test_line_count_after_escapes_in_a_string(self):
        diags = self.diags(
            'machine a "x\\\\ \\"y\\"" { stages Create }\n'
            "machine b { stages Bogus }\n"
        )
        assert [str(d) for d in diags] == [
            "2:20: error[UNKNOWN_STAGE]: unknown stage 'Bogus'"
        ]

    def test_superscript_is_not_an_integer(self):
        diags = self.diags(
            "machine a { stages Create }\n"
            "behavior {\n  event e region r interval \u00b2 1\n}\n"
        )
        assert str(diags[0]) == "3:29: error[SYNTAX]: expected interval start"

    def test_second_behavior_section(self):
        diags = self.diags("machine a { stages Create }\n"
                           "behavior {\n}\nbehavior {\n}\n")
        assert str(diags[0]) == "4:1: error[DUP_ID]: duplicate behavior section"

    def test_interval_of_no_duration(self):
        diags = self.diags("machine a { stages Create }\n"
                           "behavior {\n  event e region r interval 0 0\n}\n")
        assert [str(d) for d in diags] == [
            "3:31: error[SYNTAX]: interval duration must be >= 1"
        ]

    def test_errors_inside_blocks_recover_per_statement(self):
        """An error inside a block skips to the block's next statement, so
        the rest of the block and its closing brace add no diagnostics."""
        diags = self.diags(
            "machine a { stages Create, Process }\n"
            "flow f1: a.Create -> a.Process\n"
            "regions {\n"
            "  region R {\n"
            "    stages a.Create, a.Bogus\n"
            "    arcs f1\n"
            "  }\n"
            "  regoin S { stages a.Process }\n"
            "}\n"
            "behavior {\n"
            "  event E region R interval \u00b2 1\n"
            "  initial E\n"
            "}\n"
        )
        assert [str(d) for d in diags] == [
            "5:24: error[UNKNOWN_STAGE]: 'Bogus' is not a stage "
            "(one of Create, Process, Release, Receive, Transfer)",
            "8:3: error[SYNTAX]: expected 'region'",
            "11:29: error[SYNTAX]: expected interval start",
        ]

    def test_errors_inside_machine_and_thing_bodies_recover_per_statement(self):
        diags = self.diags(
            "thing job {\n  n: float\n  m: int\n}\n"
            "machine a {\n  stages Create, Foo\n  machine b { stages Create }\n}\n"
        )
        assert [str(d) for d in diags] == [
            "2:6: error[SYNTAX]: attribute kind must be 'int' or 'text'",
            "6:18: error[UNKNOWN_STAGE]: unknown stage 'Foo'",
        ]

    def test_lost_closing_brace_ends_the_body(self):
        """A body that reaches a statement it cannot hold reports its
        missing brace once, and that statement is parsed at top level."""
        doc, diags = parse_with_diagnostics(
            "thing job { flow: int, machine: text\n"
            "machine a {\n  stages Create, Process\n"
            "  machine b {\n    stages Create\n"
            "flow f1: a.Create -> a.Process on job\n"
        )
        assert [str(d) for d in diags] == [
            "2:1: error[SYNTAX]: expected '}'",
            "6:1: error[SYNTAX]: expected '}'",
        ]
        assert [arc.id for arc in doc.model.flows] == ["f1"]
        thing = parse("thing job { flow: int, machine: text }").model.things[0]
        assert thing.attributes == (("flow", "int"), ("machine", "text"))

    def test_lost_brace_after_an_error_is_not_reported_again(self):
        doc, diags = parse_with_diagnostics(
            "machine a {\n  stages Creat\nflow f1: a.Create -> a.Process\n"
        )
        assert [str(d) for d in diags] == [
            "2:10: error[UNKNOWN_STAGE]: unknown stage 'Creat'"
        ]
        assert [arc.id for arc in doc.model.flows] == ["f1"]

    def test_truncated_block_reports_once(self):
        diags = self.diags(
            "machine a { stages Create }\n"
            "regions {\n  region R {\n    stages a.Create\n"
        )
        assert [str(d) for d in diags] == ["5:1: error[SYNTAX]: expected '}'"]

    def test_error_before_a_closing_brace_keeps_the_block(self):
        with pytest.raises(TMParseError) as exc:
            parse_scenario("scenario s {\n  policy bogus }\n")
        assert [str(d) for d in exc.value.diagnostics] == [
            "2:10: error[SYNTAX]: policy is 'deterministic' or 'seeded-random'"
        ]

    @pytest.mark.parametrize("second", ["token t of job at a.Create",
                                        "inject 2 token t of job at a.Create"])
    def test_duplicate_token_id(self, second):
        with pytest.raises(TMParseError) as exc:
            parse_scenario("scenario s {\n  token t of job at a.Create\n"
                           f"  {second}\n}}\n")
        column = second.index(" t ") + 4
        assert [str(d) for d in exc.value.diagnostics] == [
            f"3:{column}: error[DUP_ID]: duplicate token id 't'"
        ]

    @pytest.mark.parametrize("statement", [
        "token t of job at a.Create { n = 1, n = 2 }",
        "inject 2 token t of job at a.Create { n = 1, n = 2 }",
        "mint a.Create of job { n = 1, n = 2 }",
    ])
    def test_duplicate_seed_attribute(self, statement):
        with pytest.raises(TMParseError) as exc:
            parse_scenario(f"scenario s {{\n  {statement}\n}}\n")
        column = statement.rindex("n =") + 3
        assert [str(d) for d in exc.value.diagnostics] == [
            f"2:{column}: error[DUP_ID]: duplicate attribute 'n'"
        ]

    @pytest.mark.parametrize("after", [
        "token x of y at a.Create",
        "scenario t {\n  max_steps 9\n}",
        "stray",
    ], ids=["token", "second scenario", "stray word"])
    def test_input_after_the_scenario(self, after):
        with pytest.raises(TMParseError) as exc:
            parse_scenario(f"scenario s {{\n  max_steps 5\n}}\n\n{after}\n")
        word = after.split()[0]
        assert [str(d) for d in exc.value.diagnostics] == [
            f"5:1: error[SYNTAX]: unexpected '{word}' after the scenario"
        ]

    def test_an_error_that_closes_the_scenario_early_is_reported_once(self):
        with pytest.raises(TMParseError) as exc:
            parse_scenario("scenario s {\n  seed x }\n  max_steps 5\n}\n")
        assert [str(d) for d in exc.value.diagnostics] == [
            "2:8: error[SYNTAX]: expected seed value"
        ]

    @pytest.mark.parametrize("text, message", [
        ("scenario s {\n  max_steps 5 @\n}\n", "2:15: error[SYNTAX]: unexpected character '@'"),
        ('scenario s {\n  token t of job at a.Create { n = "x }\n}\n',
         "2:36: error[SYNTAX]: unterminated string literal"),
    ], ids=["unexpected", "unterminated"])
    def test_a_scenario_that_fails_to_lex_has_one_diagnostic(self, text, message):
        with pytest.raises(TMParseError) as exc:
            parse_scenario(text)
        assert [str(d) for d in exc.value.diagnostics] == [message]

    def test_decimal_digits_of_any_script(self):
        scenario = parse_scenario("scenario s {\n  seed \u0663\n}\n")
        assert scenario.seed == 3


class TestFuzzing:
    def test_ten_thousand_inputs_never_crash(self):
        for text in fuzz_texts():
            # Must never raise; bad input surfaces as diagnostics instead.
            doc, diagnostics = parse_with_diagnostics(text)
            assert doc is not None
            assert all(d.severity in ("error", "warning") for d in diagnostics)


    def test_unicode_characters_never_crash(self):
        rng = random.Random(20261018)
        seeds = [p.read_text(encoding="utf-8") for p in MODEL_FILES]
        seeds += [p.read_text(encoding="utf-8") for p in SCENARIO_FILES]
        extra = "\u00e9\u00b2\u0663\u00a0\\"
        for _ in range(2_000):
            text = list(rng.choice(seeds))
            for _ in range(rng.randrange(1, 6)):
                pos = rng.randrange(len(text) + 1)
                text[pos:pos + rng.randrange(2)] = rng.choice(extra)
            text = "".join(text)
            parse_with_diagnostics(text)
            try:
                parse_scenario(text)
            except TMParseError:
                pass


# Lowercase, so no ident is a stage kind; keywords are filtered out.
_IDENTS = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in ("machine", "thing", "flow", "trigger", "regions", "behavior",
                        "stages", "on", "when", "label", "int", "text")
)
_STAGES = st.lists(
    st.sampled_from(list(StageKind)), min_size=1, max_size=5, unique=True
).map(tuple)


@st.composite
def models(draw) -> TMModel:
    machine_ids = draw(
        st.lists(_IDENTS, min_size=1, max_size=4, unique=True)
    )
    machines = tuple(
        Machine(mid, stages=draw(_STAGES)) for mid in machine_ids
    )
    things = tuple(
        ThingDecl(name, tuple((attr, draw(st.sampled_from(["int", "text"])))
                              for attr in attrs))
        for name, attrs in draw(
            st.dictionaries(_IDENTS, st.lists(_IDENTS, max_size=2, unique=True),
                            max_size=2)
        ).items()
        if name not in machine_ids
    )

    def ref():
        machine = draw(st.sampled_from(machines))
        kind = draw(st.sampled_from(list(machine.stages)))
        return StageRef((machine.id,), kind)

    flows = []
    for n in range(draw(st.integers(0, 3))):
        src = ref()
        tgt = ref()
        if src == tgt:
            continue
        flows.append(
            FlowArc(
                f"f{n}", src, tgt,
                thing=draw(st.one_of(st.none(), _IDENTS)),
                label=draw(st.one_of(st.none(), st.text(
                    alphabet="abc xyz\"\\", max_size=8))),
            )
        )
    triggers = []
    for n in range(draw(st.integers(0, 2))):
        src = ref()
        tgt = ref()
        if src == tgt:
            continue
        triggers.append(TriggerArc(f"t{n}", src, tgt))
    return TMModel(
        machines=machines,
        flows=tuple(flows),
        triggers=tuple(triggers),
        things=things,
    )


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(models())
    def test_generated_models_round_trip(self, model):
        assert parse(serialize(Document(model=model))).model == model

    @settings(max_examples=150, deadline=None)
    @given(models())
    def test_serializer_is_deterministic(self, model):
        assert serialize(Document(model=model)) == serialize(Document(model=model))


# Every corpus model, and corpus models with a few characters replaced,
# so that diagnostics are compared too.
_SPACED_MODELS = [p.read_text(encoding="utf-8") for p in MODEL_FILES] + \
    list(mutated_models())[:100]


_TRAILING = st.sampled_from(["", " # c", "\t#", "# a # b"])


class TestBlankLinesAndComments:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_SPACED_MODELS), st.data())
    def test_blank_and_comment_lines_move_only_line_numbers(self, text, data):
        """Runs of blank and comment-only lines inserted between a model's
        lines, and ``#`` comments after them, give an equal document, and
        the same diagnostics on the moved lines (a diagnostic at a line's
        end moves past its comment)."""
        lines = text.split("\n")
        spaced, moved_to, trailing = [], [], []
        for i, line in enumerate(lines):
            comment = "" if '"' in line else data.draw(_TRAILING)
            moved_to.append(len(spaced) + 1)
            trailing.append(comment)
            spaced.append(line + comment)
            if i < len(lines) - 1:
                spaced += data.draw(st.lists(st.sampled_from(["", "  ", "# note", "\t# x # y"]),
                                             max_size=3))
        doc, diagnostics = parse_with_diagnostics(text)
        spaced_doc, spaced_diagnostics = parse_with_diagnostics("\n".join(spaced))

        def moved(span: SourceSpan) -> SourceSpan:
            line = span.line - 1
            past_end = span.column > len(lines[line])
            return SourceSpan(moved_to[line], span.column + past_end * len(trailing[line]),
                              span.length)

        assert spaced_doc == doc
        assert spaced_diagnostics == [
            Diagnostic(d.severity, d.code, d.message, d.span and moved(d.span))
            for d in diagnostics
        ]
        assert [m.span for _, m in spaced_doc.model.walk()] == \
            [moved(m.span) for _, m in doc.model.walk()]
        assert [a.span for a in spaced_doc.model.arcs()] == \
            [moved(a.span) for a in doc.model.arcs()]


class TestDeclarationSpans:
    def test_every_kept_span_points_at_its_declaring_lexeme(self):
        """Over every corpus model and sidecar and the perfbench models of
        seeds 1-20, the text at each machine's span is its id, at each
        thing's its name, at each arc's its keyword and at each region's
        its id."""
        gen = perfbench_gen()
        texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.tm*"))
                 if path.suffix != ".tms"]
        texts += [chain(seed).model for seed in range(1, 21)
                  for chain in (gen["static_large"], gen["sim_tokens"])]
        checked = Counter()
        for text in texts:
            doc = parse(text)
            lines = text.split("\n")

            def at(span: SourceSpan) -> str:
                return lines[span.line - 1][span.column - 1:span.column - 1 + span.length]

            for _, machine in doc.model.walk():
                assert at(machine.span) == machine.id
            for thing in doc.model.things:
                assert at(thing.span) == thing.name
            for keyword, arcs in (("flow", doc.model.flows), ("trigger", doc.model.triggers)):
                for arc in arcs:
                    assert at(arc.span) == keyword, arc
            for region in doc.regions:
                assert at(region.span) == region.id
            checked.update(machines=len(list(doc.model.walk())), things=len(doc.model.things),
                           arcs=len(doc.model.flows) + len(doc.model.triggers),
                           regions=len(doc.regions))
        assert min(checked.values()) >= 40, checked


class TestScaling:
    def test_front_end_work_grows_linearly_in_model_size(self, monkeypatch):
        """Lexemes, the parser's own calls, and StageRef constructions and
        hashes while parsing the static-large model at 2N units are at most
        about twice those at N.  (Counts, not timings, which are too noisy
        on a shared machine.)"""
        gen = perfbench_gen()
        n = gen["STATIC_N"]
        lexed, built, hashed = [], [], []

        def counting_tokenize(text):
            values, offsets = tokenize(text)
            lexed.append(len(values))
            return values, offsets

        def counting_new(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        def counting_hash(self):
            hashed.append(1)
            return hash_(self)

        new, hash_ = StageRef.__new__, StageRef.__hash__
        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(StageRef, "__new__", counting_new)
        monkeypatch.setattr(StageRef, "__hash__", counting_hash)

        def work(units):
            text = gen["static_large"](3, units).model
            del lexed[:], built[:], hashed[:]
            calls = [0]

            def count_call(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == parser_module.__file__:
                    calls[0] += 1

            sys.setprofile(count_call)
            try:
                doc = parse(text)
            finally:
                sys.setprofile(None)
            assert len(doc.model.flows) > units
            return lexed[0], calls[0], len(built), len(hashed)

        at_n, at_2n = work(n), work(2 * n)
        assert all(count > 0 for count in at_n), at_n
        for count_n, count_2n in zip(at_n, at_2n):
            assert 1.8 <= count_2n / count_n <= 2.1, (at_n, at_2n)

    def test_front_end_python_calls_are_counted(self):
        """Python-level calls, over all modules, of one ``parse`` of the
        static-large model at 2N units and of one ``parse_scenario`` of the
        sim-tokens scenario (seed 3), by ``sys.setprofile``.  Before paths,
        arcs, region lists and attribute blocks were read in place they
        were 27 762 and 12 686; before each distinct path's ref was built
        once per file, and arcs and declarations read with fewer helper
        calls, 13 373 and 2 701.  They are 9 700 and
        2 011 now, and each stays within 5% of that."""
        gen = perfbench_gen()
        model = gen["static_large"](3, 2 * gen["STATIC_N"]).model
        scenario = gen["sim_tokens"](3).scenario

        def calls(parse_text, text) -> int:
            parse_text(text)  # once first, so that nothing is loaded or cached while counting
            seen = Counter()

            def profile(frame, event, arg):
                seen[event] += 1

            sys.setprofile(profile)
            try:
                parse_text(text)
            finally:
                sys.setprofile(None)
            return seen["call"]

        assert calls(parse, model) <= 10_150
        assert calls(parse_scenario, scenario) <= 2_100

    def test_lexing_makes_no_python_call_per_lexeme(self):
        """Lexing the static-large model at 2N units makes the same Python
        and C calls, by count, as at N: the lexemes and their offsets are
        built in C."""
        gen = perfbench_gen()
        n = gen["STATIC_N"]

        def calls(units):
            text = gen["static_large"](3, units).model
            seen = Counter()

            def profile(frame, event, arg):
                seen[event] += 1

            sys.setprofile(profile)
            try:
                values, offsets = tokenize(text)
            finally:
                sys.setprofile(None)
            return len(values), seen["call"], seen["c_call"]

        (lexemes_n, *at_n), (lexemes_2n, *at_2n) = calls(n), calls(2 * n)
        assert lexemes_2n > 1.8 * lexemes_n > 1000
        assert at_n == at_2n and at_n[0] > 0, (at_n, at_2n)
