import pytest

from tmflow import (
    FlowArc,
    Machine,
    StageKind,
    StageRef,
    ThingDecl,
    TMModel,
    UnknownMachineError,
    parse,
    reachable_stages,
    validate,
)


def check(text):
    return validate(parse(text).model)


class TestErrors:
    def test_clean_minimal_model(self):
        report = check(
            "machine a { stages Create, Process }\nflow a.Create -> a.Process"
        )
        assert report.ok and not report.diagnostics

    def test_adjacency_error_names_both_kinds_and_placement(self):
        report = check(
            "machine a { stages Create, Process }\nflow a.Process -> a.Create"
        )
        [diag] = report.errors
        assert diag.code == "ADJACENCY"
        assert "Process" in diag.message and "Create" in diag.message
        assert "within one machine" in diag.message

    def test_cross_machine_adjacency_error(self):
        report = check(
            "machine a { stages Release }\nmachine b { stages Receive }\n"
            "flow a.Release -> b.Receive"
        )
        [diag] = [d for d in report.errors if d.code == "ADJACENCY"]
        assert "across machines" in diag.message

    def test_repeated_ids_of_a_hand_built_model(self):
        """The parser refuses a repeated id; ``validate`` reports one in a
        model built without it."""
        create, process = StageKind.CREATE, StageKind.PROCESS
        model = TMModel(
            machines=(Machine("a", stages=(create, process)),
                      Machine("b", stages=(create, process),
                              submachines=(Machine("a", stages=(create,)),))),
            flows=(FlowArc("f", StageRef(("b",), create), StageRef(("b",), process)),
                   FlowArc("f", StageRef(("b", "a"), create), StageRef(("b",), process))),
            things=(ThingDecl("t"), ThingDecl("t")),
        )
        assert [str(d) for d in validate(model).errors if d.code == "DUP_ID"] == [
            "error[DUP_ID]: duplicate machine id 'a'",
            "error[DUP_ID]: duplicate thing 't'",
            "error[DUP_ID]: duplicate arc id 'f'",
        ]

    def test_guard_scope_of_repeated_and_empty_things(self):
        """A guard on a thing declared twice is checked against its first
        declaration, and one on a thing without attributes against none."""
        create, process = StageKind.CREATE, StageKind.PROCESS
        a, b = StageRef(("a",), create), StageRef(("a",), process)
        model = TMModel(
            machines=(Machine("a", stages=(create, process)),),
            flows=(FlowArc("f1", a, b, thing="job", guard='k = "x"'),
                   FlowArc("f2", a, b, thing="job", guard='n < "x"'),
                   FlowArc("f3", a, b, thing="empty", guard="n < 1")),
            things=(ThingDecl("job", (("n", "int"),)), ThingDecl("job", (("k", "text"),)),
                    ThingDecl("empty")),
        )
        assert [str(d) for d in validate(model).errors] == [
            "error[DUP_ID]: duplicate thing 'job'",
            "error[UNDECLARED_ATTR]: arc 'f1': guard references attribute 'k' "
            "not declared by thing 'job'",
            "error[GUARD_TYPE]: arc 'f2': operator '<' mixes int and text operands",
            "error[UNDECLARED_ATTR]: arc 'f3': guard references attribute 'n' "
            "not declared by thing 'empty'",
        ]

    def test_unresolved_machine(self):
        report = check(
            "machine a { stages Create, Process }\nflow a.Create -> ghost.Process"
        )
        assert "UNRESOLVED" in {d.code for d in report.diagnostics}

    def test_unresolved_stage(self):
        report = check(
            "machine a { stages Create }\nmachine b { stages Process }\n"
            "flow a.Create -> b.Release"
        )
        assert "UNRESOLVED" in {d.code for d in report.diagnostics}

    def test_unresolved_sugared_endpoint(self):
        report = check("machine a { stages Create }\nflow a => ghost")
        assert "UNRESOLVED" in {d.code for d in report.diagnostics}

    def test_self_trigger(self):
        # Suffix and full path of the same stage: caught after normalization.
        report = check(
            "machine outer { stages Create\n machine inner { stages Process } }\n"
            "trigger inner.Process -> outer.inner.Process"
        )
        assert "SELF_TRIGGER" in {d.code for d in report.diagnostics}

    def test_undeclared_attr_with_typed_thing(self):
        report = check(
            "thing t { n: int }\n"
            "machine a { stages Create, Process }\n"
            "flow a.Create -> a.Process on t when m > 0"
        )
        [diag] = [d for d in report.errors if d.code == "UNDECLARED_ATTR"]
        assert "'m'" in diag.message

    def test_declared_attr_accepted(self):
        report = check(
            "thing t { n: int }\n"
            "machine a { stages Create, Process }\n"
            "flow a.Create -> a.Process on t when n > 0"
        )
        assert report.ok

    def test_trigger_guard_checked_against_all_things(self):
        report = check(
            "thing t { n: int }\n"
            "machine a { stages Create, Process }\n"
            "machine b { stages Create, Process }\n"
            "flow a.Create -> a.Process on t\n"
            "flow b.Create -> b.Process on t\n"
            "trigger a.Process -> b.Create when bogus = 1"
        )
        assert "UNDECLARED_ATTR" in {d.code for d in report.diagnostics}

    def test_sugared_arcs_expand_before_checking(self):
        report = check(
            "machine a { stages Create }\nmachine b { stages Process }\n"
            "flow x: a => b on t"
        )
        assert report.ok


    def test_guard_type_on_ordering_and_arithmetic(self):
        report = check(
            "thing t { n: int, s: text }\n"
            "machine a { stages Create, Process, Release }\n"
            'flow f1: a.Create -> a.Process on t when n >= "x"\n'
            "flow f2: a.Process -> a.Release on t when s + 1 = n - -2\n"
            "flow f3: a.Create -> a.Release on t when (n + 1) < s\n"
            "trigger t1: a.Process -> a.Release when 1 > \"y\"\n"
        )
        assert [(d.code, d.message) for d in report.errors] == [
            ("GUARD_TYPE", "arc 'f1': operator '>=' mixes int and text operands"),
            ("GUARD_TYPE", "arc 'f2': operator '+' mixes int and text operands"),
            ("GUARD_TYPE", "arc 'f3': operator '<' mixes int and text operands"),
            ("GUARD_TYPE", "arc 't1': operator '>' mixes int and text operands"),
        ]

    @pytest.mark.parametrize("guard", [
        'n = "x"', 'n != "x"', "n < m", 's < "x"', "n + 1 > 0",
        # Kinds are known only for literals and the `on` thing's attributes.
        'k > "x"', '"a" + "b" < "x"',
    ])
    def test_guard_type_needs_two_known_kinds(self, guard):
        report = check(
            "thing t { n: int, m: int, s: text }\n"
            "thing u { k: int }\n"
            "machine a { stages Create, Process }\n"
            f"flow f1: a.Create -> a.Process when {guard}\n"
            f"flow f2: a.Create -> a.Process on t when {guard}\n"
        )
        assert "GUARD_TYPE" not in {d.code for d in report.diagnostics}


class TestWarnings:
    def test_opposing_flows_is_warning_not_error(self):
        report = check(
            "thing car\n"
            "machine a { stages Create, Release, Transfer }\n"
            "machine b { stages Create, Release, Transfer }\n"
            "flow a.Create -> a.Release on car\n"
            "flow a.Release -> a.Transfer on car\n"
            "flow b.Create -> b.Release on car\n"
            "flow b.Release -> b.Transfer on car\n"
            "flow a.Transfer -> b.Transfer on car\n"
            "flow b.Transfer -> a.Transfer on car\n"
        )
        assert report.ok
        [diag] = [d for d in report.diagnostics if d.code == "OPPOSING_FLOWS"]
        assert "'a'" in diag.message and "'b'" in diag.message

    def test_one_direction_only_is_silent(self):
        report = check(
            "thing car\n"
            "machine a { stages Create, Release, Transfer }\n"
            "machine b { stages Transfer, Receive, Process }\n"
            "flow a.Create -> a.Release on car\n"
            "flow a.Release -> a.Transfer on car\n"
            "flow a.Transfer -> b.Transfer on car\n"
            "flow b.Transfer -> b.Receive on car\n"
            "flow b.Receive -> b.Process on car\n"
        )
        assert "OPPOSING_FLOWS" not in {d.code for d in report.diagnostics}

    def test_unreachable_stage_warning(self):
        report = check(
            "machine a { stages Create, Process, Release }\n"
            "flow a.Create -> a.Process\n"
        )
        [diag] = [d for d in report.diagnostics if d.code == "UNREACHABLE_STAGE"]
        assert "a.Release" in diag.message
        assert report.ok

    def test_create_is_never_unreachable(self):
        report = check("machine a { stages Create, Process }\nflow a.Create -> a.Process")
        assert "UNREACHABLE_STAGE" not in {d.code for d in report.diagnostics}

    def test_zero_arc_model_yields_exactly_the_no_arcs_warning(self):
        report = check("machine lonely { stages Create }")
        assert report.ok
        assert [d.code for d in report.diagnostics] == ["NO_ARCS"]

    def test_machines_touched_by_arcs_not_flagged(self, mousetrap):
        report = validate(mousetrap.model)
        assert "NO_ARCS" not in {d.code for d in report.diagnostics}


class TestCorpusIsClean:
    @pytest.mark.parametrize(
        "fixture_name,expected_warnings",
        [
            ("mousetrap", set()),
            ("formula", set()),
            ("stack", set()),
            ("one_lane", {"OPPOSING_FLOWS"}),
            ("paint_dry", set()),
            ("paint_control", {"OPPOSING_FLOWS"}),
            ("multiple_behaviors", set()),
            ("sugar_pipeline", set()),
        ],
    )
    def test_no_errors_and_expected_warnings(
        self, fixture_name, expected_warnings, request
    ):
        doc = request.getfixturevalue(fixture_name)
        report = validate(doc.model)
        assert report.ok, str(report)
        assert {d.code for d in report.diagnostics} == expected_warnings


class TestReachability:
    def test_forward_closure(self, mousetrap):
        roots = [StageRef(("bait",), StageKind.CREATE)]
        reached = reachable_stages(mousetrap.model, roots)
        # The scent path plus both trigger-chained machines.
        assert StageRef(("trap", "door"), StageKind.PROCESS) in reached
        assert StageRef(("mouse",), StageKind.PROCESS) in reached
        assert len(reached) == 10

    def test_unknown_root_raises(self, mousetrap):
        with pytest.raises(UnknownMachineError):
            reachable_stages(mousetrap.model, [StageRef(("ghost",), None)])

    def test_closure_includes_roots(self, formula):
        roots = [StageRef(("out",), StageKind.PROCESS)]
        assert reachable_stages(formula.model, roots) == set(roots)
