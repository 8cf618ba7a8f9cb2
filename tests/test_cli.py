import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tmflow
import tmflow.behavior as behavior
from tmflow import jsonio
from tmflow.cli import (
    _COMMANDS,
    _TEXT_JSON,
    _Unusable,
    _cmd_behavior,
    _cmd_check,
    _cmd_events,
    _cmd_export,
    _cmd_simulate,
    _read_argv,
    main,
)
from tmflow.exprs import _MAX_NESTING

from conftest import CORPUS, SCENARIO_FILES, mutated_models, mutated_scenarios, nested_model


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("TM_COLOR", "never")


def corpus(name):
    return str(CORPUS / name)


class TestCheck:
    def test_clean_model_exits_zero(self, capsys):
        assert main(["check", corpus("mousetrap.tm")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_opposing_flows_warning_exits_zero(self, capsys):
        code = main(["check", corpus("one_lane_street.tm")])
        out = capsys.readouterr().out
        assert code == 0
        assert "OPPOSING_FLOWS" in out
        assert "INTERVAL_ORDER" not in out

    def test_duplicate_stage_exits_one(self, tmp_path, capsys):
        model = write(tmp_path, "dup.tm", "machine a { stages Create, Create, Process }\n")
        assert main(["check", model]) == 1
        assert capsys.readouterr().err.splitlines()[0] == (
            "1:9: error[DUPLICATE_STAGE]: machine 'a' declares Create more than once")

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tm"
        bad.write_text("machine {")
        assert main(["check", str(bad)]) == 2
        assert "SYNTAX" in capsys.readouterr().err

    def test_semantic_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tm"
        bad.write_text(
            "thing t\nmachine a { stages Create, Process }\n"
            "flow a.Process -> a.Create on t\n"
        )
        assert main(["check", str(bad)]) == 1
        assert "ADJACENCY" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", corpus("nope.tm")]) == 2

    def test_json_format(self, capsys):
        assert main(["check", corpus("one_lane_street.tm"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert any(
            d["code"] == "OPPOSING_FLOWS" for d in payload["diagnostics"]
        )

    def test_strict_mode_flags_interval_order(self, capsys):
        assert main(["check", corpus("paint_dry.tm"), "--mode", "strict"]) == 1
        assert "INTERVAL_ORDER" in capsys.readouterr().err


class TestBehavior:
    def test_inferred_graph_printed(self, capsys):
        assert main(["behavior", corpus("stack.tm")]) == 0
        out = capsys.readouterr().out
        assert "edge E0 -> E1" in out and "initial E0" in out

    def test_strict_mode_fails(self, capsys):
        assert main(["behavior", corpus("paint_dry.tm"), "--mode", "strict"]) == 1
        assert "INTERVAL_ORDER" in capsys.readouterr().err

    def test_dot_format(self, capsys):
        assert main(["behavior", corpus("multiple_behaviors.tm"),
                     "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_no_regions_is_an_error(self, capsys):
        assert main(["behavior", corpus("sugar_pipeline.tm")]) == 1
        assert "NO_REGIONS" in capsys.readouterr().err


class TestEvents:
    def test_region_summary(self, capsys):
        assert main(["events", corpus("mousetrap.tm")]) == 0
        out = capsys.readouterr().out
        assert "region a" in out and "region d" in out

    def test_bound_enumerates_subdiagrams(self, capsys):
        assert main(["events", corpus("multiple_behaviors.tm"),
                     "--bound", "2"]) == 0
        assert capsys.readouterr().out.startswith("12 subdiagrams")

    def test_bound_as_json_is_the_census_in_text_order(self, capsys):
        model = corpus("multiple_behaviors.tm")
        assert main(["events", model, "--bound", "2"]) == 0
        text = capsys.readouterr().out.splitlines()
        assert main(["events", model, "--bound", "2", "--format", "json"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert (census["schema"], census["kind"], census["bound"]) == (1, "census", 2)
        lines = [f"{len(census['subdiagrams'])} subdiagrams with at most 2 elements"]
        for sub in census["subdiagrams"]:
            stages = ", ".join(".".join(ref["machine"] + [ref["kind"]]) for ref in sub["stages"])
            lines.append(f"  stages [{stages}] arcs [{', '.join(sub['arcs']) or '-'}]")
        assert lines == text

    def test_bound_over_the_cap_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(behavior, "_CAP", 5)
        assert main(["events", corpus("multiple_behaviors.tm"), "--bound", "2"]) == 1
        assert capsys.readouterr() == (
            "", "error[BOUND]: subdiagram enumeration exceeded cap of 5\n")


class TestSimulate:
    def test_text_trace_with_conformance(self, capsys):
        assert main(["simulate", corpus("mousetrap.tm"),
                     corpus("mousetrap.tms")]) == 0
        out = capsys.readouterr().out
        assert "step 1: f1" in out
        assert "occurrences: a@1+1 b@3+3 c@7+1 d@9+1" in out
        assert "conformance: ok" in out

    def test_json_trace_to_file(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        assert main(["simulate", corpus("formula.tm"), corpus("formula.tms"),
                     "--format", "json", "--out", str(target)]) == 0
        lines = target.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace"
        assert header["final_tokens"][0]["attrs"]["sum"] == 6

    def test_max_steps_override(self, tmp_path, capsys):
        text = (CORPUS / "formula.tms").read_text(encoding="utf-8")
        scenario = write(tmp_path, "short.tms", text.replace("max_steps 50", "max_steps 5"))
        assert main(["simulate", corpus("formula.tm"), scenario]) == 0
        assert "limit_hit=yes" in capsys.readouterr().out

    def test_each_scenario_seed_chooses_its_own_trace(self, tmp_path, capsys):
        model = write(tmp_path, "choice.tm",
                      "thing t\n"
                      "machine a { stages Create, Release, Transfer }\n"
                      "machine b { stages Transfer }\n"
                      "machine c { stages Transfer }\n"
                      "flow a.Create -> a.Release on t\n"
                      "flow a.Release -> a.Transfer on t\n"
                      "flow left: a.Transfer -> b.Transfer on t\n"
                      "flow right: a.Transfer -> c.Transfer on t\n")
        tokens = "".join(f"  token x{i} of t at a.Create\n" for i in range(8))

        def scenario(seed):
            return write(tmp_path, f"s{seed}.tms", "scenario s {\n  policy seeded-random\n"
                         f"  seed {seed}\n{tokens}}}\n")

        def output(*argv):
            assert main(["simulate", model, *argv]) == 0
            return capsys.readouterr().out

        in_file = {seed: output(scenario(seed)) for seed in (1, 2, 3)}
        assert len(set(in_file.values())) == 3  # each seed chooses differently

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonconformant_trace_exits_one_after_its_verdict(self, tmp_path, capsys, fmt):
        text = "scenario late {\n  token c of coat at dry.Transfer\n}\n"
        scenario = write(tmp_path, "late.tms", text)
        assert main(["simulate", corpus("paint_dry.tm"), scenario, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        verdict = "error[NOT_INITIAL]: trace starts at non-initial event 'dry' (steps 1..2)"
        assert err == verdict + "\n"
        if fmt == "text":
            assert out.splitlines()[-1] == "conformance: " + verdict
        else:  # stdout is the trace's JSON lines alone
            model = tmflow.parse((CORPUS / "paint_dry.tm").read_text(encoding="utf-8")).model
            assert out == jsonio.trace_to_jsonl(tmflow.simulate(model, tmflow.parse_scenario(text)))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_behavior_without_regions_gets_no_verdict(self, tmp_path, capsys, fmt):
        # `tm check` rejects the model, so nothing runs: no trace, no verdict.
        model = write(tmp_path, "no_regions.tm", PAINT_DRY_WITHOUT_REGIONS)
        assert main(["simulate", model, corpus("paint_dry.tms"), "--format", fmt]) == 1
        assert capsys.readouterr() == (
            "", "error[NO_REGIONS]: behavior section present but no regions declared\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_late_injection_is_a_warning(self, tmp_path, capsys, fmt):
        text = (CORPUS / "formula.tms").read_text(encoding="utf-8")
        text = text.replace("max_steps 50", "max_steps 5")
        on_time = write(tmp_path, "on_time.tms", text)
        late = write(tmp_path, "late.tms", text.replace(
            "  action", "  inject 9 token k of acc at F.Create { sum = 0, i = 1, n = 3 }\n"
            "  action", 1))
        assert main(["simulate", corpus("formula.tm"), on_time, "--format", fmt]) == 0
        trace = capsys.readouterr()
        assert trace.err == ""
        assert main(["simulate", corpus("formula.tm"), late, "--format", fmt]) == 0
        assert capsys.readouterr() == (trace.out, (
            "warning[LATE_INJECTION]: token 'k' is injected at step 9, "
            "after max_steps 5, and never enters\n"))

    def test_missing_scenario_exits_two(self, capsys):
        assert main(["simulate", corpus("formula.tm"), corpus("nope.tms")]) == 2

    def test_duplicate_token_id_exits_two(self, tmp_path, capsys):
        scenario = write(tmp_path, "dup.tms",
                         "scenario dup {\n"
                         "  token s of smell at bait.Create\n"
                         "  inject 1 token s of smell at bait.Create\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), scenario]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "3:18: error[DUP_ID]: duplicate token id 's'\n"

    def test_duplicate_seed_attribute_exits_two(self, tmp_path, capsys):
        scenario = write(tmp_path, "dup.tms",
                         "scenario dup {\n"
                         "  token s of smell at bait.Create { n = 1, n = 2 }\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), scenario]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "2:44: error[DUP_ID]: duplicate attribute 'n'\n"

    def test_token_of_undeclared_thing_exits_one(self, tmp_path, capsys):
        model = write(tmp_path, "job.tm",
                      "thing job { n: int }\n"
                      "machine a { stages Create, Process }\n"
                      "flow f1: a.Create -> a.Process on job\n")
        scenario = write(tmp_path, "ghost.tms",
                         "scenario s {\n  token t of ghost at a.Create { n = 1 }\n}\n")
        assert main(["simulate", model, scenario]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error[SIMULATION]: scenario token 't' is of undeclared "
                       "thing 'ghost'\n")

    @pytest.mark.parametrize("mints, message", [
        ("  mint a.Process of job { n = 5 }\n",
         "scenario mint at a.Process is not at a Create stage"),
        ("  mint top.b.Create of job { n = 2 }\n  mint b.Create of job { n = 3 }\n",
         "scenario mint at b.Create repeats the mint at top.b.Create"),
    ], ids=["not-create", "twice"])
    def test_mint_no_trigger_can_read_exits_one(self, tmp_path, capsys, mints, message):
        model = write(tmp_path, "m.tm",
                      "thing job { n: int }\n"
                      "machine top {\n"
                      "  machine a { stages Create, Process }\n"
                      "  machine b { stages Create, Process }\n"
                      "}\n"
                      "flow f1: a.Create -> a.Process on job\n"
                      "trigger t1: a.Process -> b.Create\n")
        scenario = write(tmp_path, "m.tms",
                         f"scenario s {{\n  token x of job at a.Create {{ n = 1 }}\n{mints}}}\n")
        assert main(["simulate", model, scenario]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error[SIMULATION]: {message}\n"


class TestExport:
    def test_dot_default(self, capsys):
        assert main(["export", corpus("mousetrap.tm")]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "mousetrap"')
        assert "style=dashed" in out

    def test_json(self, capsys):
        assert main(["export", corpus("stack.tm"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "model"
        assert len(payload["machines"]) == 10

    def test_out_file(self, tmp_path):
        target = tmp_path / "model.dot"
        assert main(["export", corpus("formula.tm"), "--out", str(target)]) == 0
        assert target.read_text().startswith("digraph")


BAD_REGION_TM = ("thing t\n"
                 "machine a { stages Create, Process }\n"
                 "flow f1: a.Create -> a.Process on t\n"
                 "regions {\n  region r { stages a.Create, b.Create\n arcs f1 }\n}\n")


class TestOutFile:
    """``--out`` gets the bytes stdout gets without it, and stdout stays
    empty; a command that prints nothing to stdout writes no file."""

    @pytest.mark.parametrize("argv", [
        ["check", "one_lane_street.tm"],
        ["check", "mousetrap.tm"],
        ["check", "BAD_REGION"],
        ["events", "mousetrap.tm"],
        ["events", "one_lane_street.tm"],
        ["events", "BAD_REGION"],
        ["events", "multiple_behaviors.tm", "--bound", "2"],
    ], ids=" ".join)
    def test_out_file_gets_the_stdout_bytes(self, argv, tmp_path, capsys):
        model = (write(tmp_path, "bad.tm", BAD_REGION_TM) if argv[1] == "BAD_REGION"
                 else corpus(argv[1]))
        command = [argv[0], model, *argv[2:]]
        code = main(command)
        expected = capsys.readouterr()
        target = tmp_path / "o.txt"
        assert main([*command, "--out", str(target)]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", expected.err)
        if expected.out:
            assert target.read_bytes() == expected.out.encode()
        else:
            assert code == 1 and not target.exists()

    @pytest.mark.parametrize("argv", [
        ["export", "stack.tm"],
        ["check", "stack.tm", "--format", "json"],
    ], ids=" ".join)
    def test_unwritable_out_is_a_syntax_error(self, argv, tmp_path, capsys):
        target = tmp_path / "nonexistent" / "x.out"
        assert main([argv[0], corpus(argv[1]), *argv[2:], "--out", str(target)]) == 2
        reason = f"[Errno 2] No such file or directory: '{target}'"
        assert capsys.readouterr() == (
            "", f"error[SYNTAX]: cannot write '{target}': {reason}\n")


class TestSidecar:
    def test_tmb_next_to_model_is_merged(self, tmp_path, capsys):
        model = tmp_path / "demo.tm"
        model.write_text(
            "thing t\n"
            "machine a { stages Create, Process }\n"
            "machine b { stages Create, Process }\n"
            "flow f1: a.Create -> a.Process on t\n"
            "flow f2: b.Create -> b.Process on t\n"
            "trigger tr: a.Process -> b.Create\n"
        )
        (tmp_path / "demo.tmb").write_text(
            "regions {\n"
            "  region first { stages a.Create, a.Process\n    arcs f1 }\n"
            "  region second { stages b.Create, b.Process\n    arcs f2 }\n"
            "}\n"
            "behavior {\n"
            "  event one region first\n"
            "  event two region second\n"
            "  initial one\n"
            "  edge one -> two\n"
            "}\n"
        )
        assert main(["behavior", str(model)]) == 0
        out = capsys.readouterr().out
        assert "event one region first" in out
        assert "edge one -> two" in out

    def test_strict_schedule_sidecar_validates(self, tmp_path, capsys):
        model = tmp_path / "paint_dry.tm"
        model.write_text((CORPUS / "paint_dry.tm").read_text())
        # Replace the inline overlap schedule with the strict one.
        text = model.read_text()
        model.write_text(text[: text.index("behavior {")])
        (tmp_path / "paint_dry.tmb").write_text(
            (CORPUS / "paint_dry_strict.tmb").read_text()
        )
        assert main(["check", str(model), "--mode", "strict"]) == 0

    def test_model_statements_in_a_sidecar_are_syntax_errors(self, tmp_path, capsys):
        model = write(tmp_path, "stack.tm", (CORPUS / "stack.tm").read_text())
        sidecar = write(tmp_path, "stack.tmb",
                        "regions {\n  region r { stages extra.Create }\n}\n"
                        "machine extra { stages Create, Release }\n"
                        "flow extra.Create -> extra.Release\n"
                        "thing extra_job\n"
                        "trigger extra.Release -> extra.Create\n")
        why = f"error[SYNTAX]: '{sidecar}': a .tmb sidecar holds only regions and behavior"
        expected = [f"{where}: {why}" for where in ("4:9", "5:1", "6:7", "7:1")]
        assert main(["check", model]) == 2
        assert capsys.readouterr() == ("", "\n".join(expected) + "\n")
        assert main(["check", model, "--format", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [(d["code"], d["span"]["line"]) for d in report["diagnostics"]] == [
            ("SYNTAX", 4), ("SYNTAX", 5), ("SYNTAX", 6), ("SYNTAX", 7)]
        assert main(["export", model, "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "\n".join(expected) + "\n")

    @pytest.mark.parametrize("where", ["in-file", "sidecar"])
    def test_repeated_region_id_fails_check(self, tmp_path, capsys, where):
        text = (CORPUS / "paint_dry.tm").read_text()
        model = tmp_path / "paint_dry.tm"
        model.write_text(text[: text.index("behavior {")])
        again = 'regions {\n  region R_paint { stages dry.Process }\n}\n'
        if where == "in-file":
            model.write_text(model.read_text() + again)
        else:
            (tmp_path / "paint_dry.tmb").write_text(again)
        assert main(["check", str(model)]) == 1
        # The repeated id's line: in the model after its 32 lines, or in the sidecar.
        line = 34 if where == "in-file" else 2
        assert capsys.readouterr() == (
            "", f"{line}:10: error[DUP_ID]: duplicate region id 'R_paint'\n")


def with_bom(tmp_path, name, target=None):
    """A copy of a corpus file that starts with a UTF-8 byte-order mark."""
    path = tmp_path / (target or name)
    path.write_bytes(b"\xef\xbb\xbf" + (CORPUS / name).read_bytes())
    return str(path)


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the same
    file without it: the same output and exit code."""

    def test_model(self, tmp_path, capsys):
        assert main(["check", with_bom(tmp_path, "paint_dry.tm")]) == 0
        assert capsys.readouterr() == ("ok\n", "")

    def test_sidecar(self, tmp_path, capsys):
        text = (CORPUS / "paint_dry.tm").read_text(encoding="utf-8")
        (tmp_path / "paint_dry.tm").write_text(text[: text.index("behavior {")])
        with_bom(tmp_path, "paint_dry_strict.tmb", "paint_dry.tmb")
        assert main(["check", str(tmp_path / "paint_dry.tm"), "--mode", "strict"]) == 0
        assert capsys.readouterr() == ("ok\n", "")

    def test_scenario(self, tmp_path, capsys):
        assert main(["simulate", corpus("mousetrap.tm"), corpus("mousetrap.tms")]) == 0
        plain = capsys.readouterr()
        assert "conformance: ok" in plain.out
        argv = ["simulate", corpus("mousetrap.tm"), with_bom(tmp_path, "mousetrap.tms")]
        assert main(argv) == 0
        assert capsys.readouterr() == plain


# A flow whose target machine does not exist.
UNKNOWN_MACHINE_TM = """\
thing job
machine a { stages Create, Process, Release, Transfer }
flow f1: a.Create -> a.Process on job
flow f2: a.Process -> nosuch.Receive on job
regions {
  region r { stages a.Create, a.Process
             arcs f1 }
}
"""

# `route: sender => receiver` with regions over the stages and arcs that
# expanding the arc declares.
SUGAR_REGION_TM = """\
thing parcel
machine sender { stages Create, Release }
machine receiver { stages Process }
flow s1: sender.Create -> sender.Release on parcel
flow route: sender => receiver on parcel
flow r1: receiver.Receive -> receiver.Process on parcel
regions {
  region send { stages sender.Create, sender.Release, sender.Transfer
                arcs s1, route__rel }
  region recv { stages receiver.Transfer, receiver.Receive, receiver.Process
                arcs route__rcv, r1 }
}
"""
SUGAR_REGION_TMS = """\
scenario sugar_region {
  max_steps 20
  token p of parcel at sender.Create
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestUnresolvedArcs:
    @pytest.mark.parametrize("argv", [
        ["behavior"], ["export"], ["events", "--bound", "2"],
        ["export", "--format", "json"], ["events"], ["events", "--format", "json"],
    ])
    def test_unknown_machine_is_a_diagnostic(self, tmp_path, capsys, argv):
        model = write(tmp_path, "m.tm", UNKNOWN_MACHINE_TM)
        assert main([argv[0], model, *argv[1:]]) == 1
        err = capsys.readouterr().err
        expected = "4:1: error[UNRESOLVED]: flow 'f2': no machine matches path 'nosuch'\n"
        if argv[0] != "export":  # the whole report of `tm check`, warnings too
            expected += ("warning[UNREACHABLE_STAGE]: stage a.Release has no incoming arc\n"
                         "warning[UNREACHABLE_STAGE]: stage a.Transfer has no incoming arc\n")
        assert err == expected

    def test_region_naming_unresolved_arc_is_dangling(self, tmp_path, capsys):
        text = UNKNOWN_MACHINE_TM.replace("arcs f1 }", "arcs f1, f2 }")
        model = write(tmp_path, "m.tm", text)
        assert main(["check", model]) == 1
        err = capsys.readouterr().err
        assert (
            "error[DANGLING_REF]: region 'r': arc 'f2': "
            "no machine matches path 'nosuch'" in err
        )

    def test_simulate_guard_type_error_is_a_diagnostic(self, tmp_path, capsys):
        model = write(tmp_path, "g.tm",
                      "thing job { n: int }\n"
                      "machine a { stages Create, Process }\n"
                      'flow f1: a.Create -> a.Process on job when n >= "x"\n')
        scenario = write(tmp_path, "g.tms",
                         "scenario g {\n  token j of job at a.Create { n = 1 }\n}\n")
        assert main(["simulate", model, scenario]) == 1
        assert capsys.readouterr().err == (
            "3:1: error[GUARD_TYPE]: arc 'f1': operator '>=' mixes int and "
            "text operands\n"
        )

    def test_simulate_run_time_type_error_is_a_diagnostic(self, tmp_path, capsys):
        # The model checks clean; only the seed's text value meets the int guard.
        model = write(tmp_path, "g.tm",
                      "thing job { n: int }\n"
                      "machine a { stages Create, Process }\n"
                      "flow f1: a.Create -> a.Process on job when n >= 1\n")
        scenario = write(tmp_path, "g.tms",
                         'scenario g {\n  token j of job at a.Create { n = "x" }\n}\n')
        assert main(["check", model]) == 0
        capsys.readouterr()
        assert main(["simulate", model, scenario]) == 1
        assert capsys.readouterr() == (
            "", "error[SIMULATION]: cannot order str against int\n")


    def test_check_reports_guard_type(self, tmp_path, capsys):
        model = write(tmp_path, "g.tm",
                      "thing job { n: int }\n"
                      "machine a { stages Create, Process }\n"
                      'flow f1: a.Create -> a.Process on job when n >= "x"\n')
        assert main(["check", model]) == 1
        assert capsys.readouterr().err == (
            "3:1: error[GUARD_TYPE]: arc 'f1': operator '>=' mixes int and "
            "text operands\n"
        )


PAINT_DRY = (CORPUS / "paint_dry.tm").read_text(encoding="utf-8")
PAINT_DRY_WITHOUT_REGIONS = (PAINT_DRY[: PAINT_DRY.index("regions {")]
                             + PAINT_DRY[PAINT_DRY.index("behavior {"):])
JOB_TMS = "scenario s {\n  token j of job at a.Create { n = 1 }\n}\n"

# Models that `tm check` rejects, each with a scenario that would run on it.
REJECTED = {
    "ADJACENCY": ("thing job { n: int }\n"
                  "machine a { stages Create, Transfer }\n"
                  "machine b { stages Process }\n"
                  "flow f1: a.Create -> a.Transfer on job\n"
                  "flow f2: a.Transfer -> b.Process on job\n"
                  "flow f3: b.Process -> a.Create on job\n", JOB_TMS),
    "UNRESOLVED": (UNKNOWN_MACHINE_TM, JOB_TMS),
    "NO_REGIONS": (PAINT_DRY_WITHOUT_REGIONS,
                   (CORPUS / "paint_dry.tms").read_text(encoding="utf-8")),
    "GUARD_TYPE": ("thing job { n: int }\n"
                   "machine a { stages Create, Process }\n"
                   'flow f1: a.Create -> a.Process on job when n >= "x"\n', JOB_TMS),
    "OVERLAP": ("thing job { n: int }\n"
                "machine a { stages Create, Process, Release }\n"
                "flow f1: a.Create -> a.Process on job\n"
                "flow f2: a.Process -> a.Release on job\n"
                "regions {\n"
                "  region first { stages a.Create, a.Process\n    arcs f1 }\n"
                "  region second { stages a.Process, a.Release\n    arcs f2 }\n"
                "}\n", JOB_TMS),
}


@pytest.mark.parametrize("command", [
    ["events"], ["events", "--format", "json"], ["events", "--bound", "2"],
    ["behavior"], ["behavior", "--format", "json"],
    ["simulate", "SCENARIO"], ["simulate", "SCENARIO", "--format", "json"],
], ids=" ".join)
@pytest.mark.parametrize("code", sorted(REJECTED))
def test_a_model_check_rejects_goes_no_further(tmp_path, capsys, code, command):
    """``events``, ``behavior`` and ``simulate`` start from ``check``'s
    verdict: on a model it rejects they print exactly what it prints to
    stderr, nothing on stdout, and exit 1."""
    text, scenario_text = REJECTED[code]
    model = write(tmp_path, "m.tm", text)
    scenario = write(tmp_path, "s.tms", scenario_text)
    assert main(["check", model]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"error[{code}]" in err
    rest = [scenario if arg == "SCENARIO" else arg for arg in command[1:]]
    assert main([command[0], model, *rest]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_renders_any_model_whose_arcs_resolve(tmp_path, capsys, fmt):
    """``export`` does not start from ``check``'s verdict: it renders each
    model ``check`` rejects, but stops at the first arc that does not
    resolve with the one line ``check`` prints for it."""
    for code, (text, _) in sorted(REJECTED.items()):
        model = write(tmp_path, f"{code}.tm", text)
        assert main(["check", model]) == 1
        check_err = capsys.readouterr().err
        if code == "UNRESOLVED":
            assert main(["export", model, "--format", fmt]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines() == [
                line for line in check_err.splitlines() if "error[UNRESOLVED]" in line]
        else:
            assert main(["export", model, "--format", fmt]) == 0, code
            out, err = capsys.readouterr()
            assert out and err == "", code


def every_command_form() -> list[list[str]]:
    """Each command in each of its formats, and the census in both; the
    word ``scenario`` stands for the scenario file of ``simulate``."""
    forms = [[command, *positionals[1:], "--format", fmt]
             for command, (_, positionals, options, _) in _COMMANDS.items()
             for fmt in options["--format"]]
    return forms + [["events", "--bound", "2", "--format", fmt] for fmt in _TEXT_JSON]


def test_no_model_gets_a_traceback(tmp_path):
    """Every command form, on each fuzzed corpus model that parses and on
    each model ``check`` rejects, ends with an exit code of 0, 1 or 2 and
    no exception: ``main`` catches no ``ModelError``, so nothing after its
    gate, or in ``export``, may raise one."""
    texts = [text for text in mutated_models()
             if all(d.severity != "error" for d in tmflow.parse_with_diagnostics(text)[1])]
    texts += [text for text, _ in REJECTED.values()]
    scenarios = [str(path) for path in SCENARIO_FILES]
    forms = every_command_form()
    sink = io.StringIO()
    for number, text in enumerate(texts):
        model = write(tmp_path, f"m{number}.tm", text)
        scenario = scenarios[number % len(scenarios)]
        for form in forms:
            argv = [form[0], model, *(scenario if arg == "scenario" else arg
                                      for arg in form[1:])]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError(f"tm {' '.join(argv)} raised {exc!r}") from exc
            assert code in (0, 1, 2), argv
            sink.seek(0)
            sink.truncate()


def test_no_scenario_gets_a_traceback(tmp_path):
    """Each fuzzed corpus scenario, run with its own model in both
    formats, ends with an exit code of 0, 1 or 2 and no exception."""
    sink = io.StringIO()
    for number, (model, text) in enumerate(mutated_scenarios()):
        scenario = write(tmp_path, f"s{number}.tms", text)
        for fmt in _TEXT_JSON:
            argv = ["simulate", str(model), scenario, "--format", fmt]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError(f"tm {' '.join(argv)} raised {exc!r}") from exc
            assert code in (0, 1, 2), argv
            sink.seek(0)
            sink.truncate()


class TestSugaredArcs:
    def test_check_accepts_regions_over_expanded_stages(self, tmp_path, capsys):
        model = write(tmp_path, "s.tm", SUGAR_REGION_TM)
        assert main(["check", model]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_behavior_over_expanded_stages(self, tmp_path, capsys):
        model = write(tmp_path, "s.tm", SUGAR_REGION_TM)
        assert main(["behavior", model]) == 0
        assert "edge send -> recv" in capsys.readouterr().out

    def test_simulate_checks_conformance(self, tmp_path, capsys):
        model = write(tmp_path, "s.tm", SUGAR_REGION_TM)
        scenario = write(tmp_path, "s.tms", SUGAR_REGION_TMS)
        assert main(["simulate", model, scenario]) == 0
        assert capsys.readouterr().out.endswith("conformance: ok\n")

    def test_census_of_sugared_model(self, capsys):
        assert main(["events", corpus("sugar_pipeline.tm"), "--bound", "3"]) == 0
        assert capsys.readouterr().out.startswith(
            "19 subdiagrams with at most 3 elements\n"
        )


class TestArgumentChecks:
    def test_max_steps_below_one_exits_two(self, tmp_path, capsys):
        scenario = write(tmp_path, "zero.tms", "scenario s {\n  max_steps 0\n}\n")
        assert main(["simulate", corpus("formula.tm"), scenario]) == 2
        captured = capsys.readouterr()
        assert captured.err == "2:13: error[SYNTAX]: max_steps must be >= 1\n"
        assert captured.out == ""

    def test_negative_bound_exits_two(self, capsys):
        assert main(["events", corpus("multiple_behaviors.tm"), "--bound", "-1"]) == 2
        assert capsys.readouterr() == (
            "", "error[SYNTAX]: tm events: --bound must be >= 0\n")

    @pytest.mark.parametrize("argv, message", [
        ([], "tm: no command; expected one of check, events, behavior, simulate, export"),
        (["run", "m.tm"], "tm: unknown command 'run'; "
                          "expected one of check, events, behavior, simulate, export"),
        (["check", "m.tm", "--bound", "3"], "tm check: unknown option '--bound'"),
        (["check", "m.tm", "--form=json"], "tm check: unknown option '--form'"),
        (["check", "m.tm", "--out"], "tm check: --out needs a value"),
        (["check", "--out", "--mode", "strict", "m.tm"], "tm check: --out needs a value"),
        (["export", "m.tm", "--format", "text"],
         "tm export: --format must be one of dot, json, not 'text'"),
        (["events", "m.tm", "--bound=3x"], "tm events: --bound must be an int, not '3x'"),
        (["simulate", "m.tm"], "tm simulate: missing SCENARIO"),
        (["check"], "tm check: missing MODEL"),
        (["behavior", "m.tm", "--", "x.tm"], "tm behavior: unknown option '--'"),
        (["events", "m.tm", "s.tms"], "tm events: unexpected argument 's.tms'"),
        (["check", "m.tm", "--out", "-"], "tm check: --out needs a file name, not '-'"),
        (["export", "--out=", "m.tm"], "tm export: --out needs a file name, not ''"),
        (["simulate", "m.tm", "s.tms", "--out", ""],
         "tm simulate: --out needs a file name, not ''"),
    ])
    def test_usage_fault_is_one_diagnostic(self, capsys, argv, message):
        """Every fault of the command line is read before the model, and
        names the command and the argument."""
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error[SYNTAX]: {message}\n")

    @pytest.mark.parametrize("after", ["token x of coat at paint.Create",
                                       "scenario t {\n}", "s"],
                             ids=["token", "second scenario", "stray word"])
    def test_input_after_the_scenario_exits_two(self, tmp_path, capsys, after):
        text = "scenario s {\n  max_steps 5\n}\n" + after + "\n"
        scenario = write(tmp_path, "s.tms", text)
        assert main(["simulate", corpus("paint_dry.tm"), scenario]) == 2
        word = after.split()[0]
        assert capsys.readouterr() == (
            "", f"4:1: error[SYNTAX]: unexpected '{word}' after the scenario\n")


def test_region_diagnostics_do_not_depend_on_hash_seed(tmp_path):
    dangling = write(tmp_path, "d.tm",
                     "thing t\n"
                     "machine a { stages Create, Process }\n"
                     "flow f1: a.Create -> a.Process on t\n"
                     "regions {\n"
                     "  region r { stages a.Create, b.Create, c.Process\n"
                     "             arcs f1 }\n"
                     "}\n")
    opposing = write(tmp_path, "o.tm",
                     "".join(f"machine {m} {{ stages Transfer }}\n" for m in "abcd")
                     + "flow a.Transfer -> d.Transfer\n"
                       "flow d.Transfer -> a.Transfer\n"
                       "flow b.Transfer -> c.Transfer\n"
                       "flow c.Transfer -> b.Transfer\n")
    src = str(Path(tmflow.__file__).resolve().parent.parent)

    def check_under_seeds(model):
        outputs = []
        for seed in map(str, range(1, 9)):  # set order puts c first under seed 7
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src, TM_COLOR="never")
            run = subprocess.run([sys.executable, "-m", "tmflow.cli", "check", model],
                                 env=env, capture_output=True, text=True)
            outputs.append((run.returncode, run.stdout, run.stderr))
        assert all(out == outputs[0] for out in outputs)
        return outputs[0]

    code, _, err = check_under_seeds(dangling)
    assert code == 1
    assert err.splitlines()[:2] == [
        "5:10: error[DANGLING_REF]: region 'r': no machine matches path 'b'",
        "5:10: error[DANGLING_REF]: region 'r': no machine matches path 'c'",
    ]
    # Ordered by the displayed pair: the b/c warning came first under most seeds.
    code, out, _ = check_under_seeds(opposing)
    assert code == 0
    assert out.splitlines() == [
        f"warning[OPPOSING_FLOWS]: opposing flows between '{a}' and '{b}' "
        "(statically legal; resolved dynamically by events)" for a, b in ("ad", "bc")
    ] + ["ok (with warnings)"]


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("command, code", [
    (["events", corpus("multiple_behaviors.tm"), "--bound", "-1"], 2),
    (["simulate", corpus("mousetrap.tm"), "MISSING"], 2),
    (["simulate", "MODEL", "GHOST"], 1),
    (["export", corpus("stack.tm"), "--out", "NO_DIR"], 2),
    (["export", corpus("stack.tm"), "--format", "xml"], 2),
], ids=["bound", "unreadable scenario", "simulation", "unwritable out", "usage"])
def test_every_fault_is_tinted_on_a_terminal(tmp_path, monkeypatch, command, code):
    paths = {
        "MODEL": write(tmp_path, "job.tm", "thing job\nmachine a { stages Create, Process }\n"
                                           "flow f1: a.Create -> a.Process on job\n"),
        "GHOST": write(tmp_path, "ghost.tms", "scenario s {\n  token t of ghost at a.Create\n}\n"),
        "MISSING": str(tmp_path / "nope.tms"),
        "NO_DIR": str(tmp_path / "no" / "stack.dot"),
    }
    monkeypatch.delenv("TM_COLOR")
    monkeypatch.setattr(sys, "stderr", _Terminal())
    assert main([paths.get(arg, arg) for arg in command]) == code
    [line] = sys.stderr.getvalue().splitlines()
    assert line.startswith("\x1b[31merror[") and line.endswith("\x1b[0m")


class TestLexicalErrors:
    def test_scenario_diagnostic_is_printed_once(self, tmp_path, capsys):
        scenario = write(tmp_path, "b.tms", "scenario b {\n  bogus\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), scenario]) == 2
        assert capsys.readouterr().err == (
            "2:3: error[SYNTAX]: unexpected 'bogus' in scenario\n"
        )

    def test_scenario_lexing_error_is_printed_once(self, tmp_path, capsys):
        scenario = write(tmp_path, "bad.tms", "scenario s {\n  max_steps 5 @\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), scenario]) == 2
        assert capsys.readouterr().err == "2:15: error[SYNTAX]: unexpected character '@'\n"

    def test_superscript_seed_is_a_syntax_error(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.tms", "scenario s {\n  seed ³\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), scenario]) == 2
        assert capsys.readouterr().err == "2:8: error[SYNTAX]: expected seed value\n"

    def test_undecodable_scenario_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "x.tms"
        scenario.write_bytes(b"scenario x {\xff\n}\n")
        assert main(["simulate", corpus("mousetrap.tm"), str(scenario)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error[SYNTAX]: cannot read '{scenario}': 'utf-8' codec"
        )

    def test_undecodable_model_exits_two(self, tmp_path, capsys):
        model = tmp_path / "x.tm"
        model.write_bytes(b"machine a { stages Create }\n\xff\n")
        assert main(["check", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[SYNTAX]: cannot read '{model}': 'utf-8' codec")
        assert err.count("\n") == 1

    def test_undecodable_sidecar_exits_two(self, tmp_path, capsys):
        model = write(tmp_path, "x.tm", "machine a { stages Create }\n")
        (tmp_path / "x.tmb").write_bytes(b"regions {\xff}\n")
        assert main(["check", model]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error[SYNTAX]: cannot read '{tmp_path / 'x.tmb'}': 'utf-8' codec"
        )
        assert err.count("\n") == 1

    def test_superscript_interval_is_a_syntax_error(self, tmp_path, capsys):
        model = write(tmp_path, "i.tm",
                      "machine a { stages Create }\n"
                      "regions {\n  region r { stages a.Create }\n}\n"
                      "behavior {\n  event e region r interval ² 1\n}\n")
        assert main(["check", model]) == 2
        err = capsys.readouterr().err
        assert err.startswith("6:29: error[SYNTAX]: expected interval start\n")
        assert "Traceback" not in err

    # An integer literal longer than Python converts to ``int`` (4 300
    # digits unless the process sets another limit) is a diagnostic at the
    # literal, at each of the three places an INT is read.
    LONG = "9" * 5000

    def long_literal(self) -> str:
        return f"integer literal longer than {sys.get_int_max_str_digits()} digits"

    def test_long_integer_in_a_guard(self, tmp_path, capsys):
        model = write(tmp_path, "g.tm", "thing job { n: int }\n"
                      "machine a { stages Create, Process }\n"
                      f"flow f: a.Create -> a.Process on job when n > {self.LONG}\n")
        assert main(["check", model]) == 2
        assert capsys.readouterr().err == (
            f"3:47: error[GUARD_SYNTAX]: bad guard: {self.long_literal()}\n")

    @pytest.mark.parametrize("model, scenario, at", [
        ("machine a { stages Create }\nregions {\n  region r { stages a.Create }\n}\n"
         f"behavior {{\n  event e region r interval 1 {LONG}\n}}\n", None, "6:31"),
        ("thing job { n: int }\nmachine a { stages Create }\n",
         f"scenario s {{\n  max_steps {LONG}\n  token t of job at a.Create\n}}\n", "2:13"),
    ], ids=["interval", "max_steps"])
    def test_long_integer_after_a_keyword(self, tmp_path, capsys, model, scenario, at):
        argv = ["check", write(tmp_path, "k.tm", model)]
        if scenario is not None:
            argv = ["simulate", argv[1], write(tmp_path, "k.tms", scenario)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{at}: error[SYNTAX]: {self.long_literal()}\n"

    def test_long_integer_in_token_attributes(self, tmp_path, capsys):
        model = write(tmp_path, "t.tm", "thing job { n: int }\nmachine a { stages Create }\n")
        scenario = write(tmp_path, "t.tms", "scenario s {\n"
                         f"  token t of job at a.Create {{ n = -{self.LONG} }}\n}}\n")
        assert main(["simulate", model, scenario]) == 2
        assert capsys.readouterr().err == f"2:37: error[SYNTAX]: {self.long_literal()}\n"

    def test_guard_over_non_ascii_attribute(self, tmp_path, capsys):
        model = write(tmp_path, "u.tm",
                      "thing job { größe: int }\n"
                      "machine a { stages Create, Process }\n"
                      "flow f1: a.Create -> a.Process on job when größe > 1\n")
        assert main(["check", model]) == 0
        assert capsys.readouterr().out == "ok\n"


def nested_scenario(machines: int, parentheses: int) -> str:
    stop = "(" * parentheses + "n" + ")" * parentheses
    return (f"scenario s {{\n  token t of job at m{machines - 1}.Create {{ n = 1 }}\n"
            f"  stop when {stop} > 5\n}}\n")


# Every command, once in each format; SCENARIO stands for the scenario file.
EVERY_COMMAND = [
    ["check"], ["check", "--format", "json"], ["events"], ["events", "--bound", "2"],
    ["behavior"], ["behavior", "--format", "json"], ["export"],
    ["export", "--format", "json"], ["simulate", "SCENARIO"],
    ["simulate", "SCENARIO", "--format", "json"],
]


def chain(op: str, operators: int) -> str:
    return "n" + f" {op} n" * operators


def chain_model(operators: int) -> str:
    """One machine and a flow whose guard, a sum of ``operators``
    operators, holds for ``n = 1``."""
    return ("thing job { n: int }\nmachine m0 { stages Create, Process }\n"
            f"flow f: m0.Create -> m0.Process on job when {chain('-', operators)} < 3\n"
            "regions {\n  region r { stages m0.Create, m0.Process\n    arcs f\n  }\n}\n")


def chain_scenario(operators: int) -> str:
    """A token with ``n = 1``, an action that sets ``n`` to a sum of
    ``operators`` operators, and a stop condition that is one too."""
    return (f"scenario s {{\n  token t of job at m0.Create {{ n = 1 }}\n"
            f"  action m0.Process {{ n := {chain('+', operators)} }}\n"
            f"  stop when {chain('+', operators)} > 5\n}}\n")


class TestNesting:
    """Machines, parentheses, unary minuses and the operators of a sum nest
    at most ``_MAX_NESTING`` deep; a deeper level is one SYNTAX error at
    the lexeme that opens it, not a RecursionError."""

    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_every_command_runs_at_the_bound(self, tmp_path, capsys, argv):
        model = write(tmp_path, "deep.tm", nested_model(_MAX_NESTING, _MAX_NESTING))
        scenario = write(tmp_path, "deep.tms", nested_scenario(_MAX_NESTING, _MAX_NESTING))
        argv = [argv[0], model, *(scenario if arg == "SCENARIO" else arg for arg in argv[1:])]
        assert main(argv) == 0
        err = capsys.readouterr().err
        if argv[0] == "behavior":  # the warnings `tm check` prints
            assert main(["check", model]) == 0
            assert err == capsys.readouterr().out.removesuffix("ok (with warnings)\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("machines", [_MAX_NESTING + 1, 300])
    def test_machines_past_the_bound(self, tmp_path, capsys, machines):
        model = write(tmp_path, "deep.tm", nested_model(machines, 1))
        assert main(["check", model]) == 2
        column = 2 * _MAX_NESTING + 1  # the machine that opens the level too many
        assert capsys.readouterr().err == (
            f"{_MAX_NESTING + 2}:{column}: error[SYNTAX]: nesting deeper than 100 levels\n")

    # The guard starts at column 43; the column is that of the 101st "(" or "-".
    @pytest.mark.parametrize("guard, column", [
        ("(" * 101 + "n" + ")" * 101 + " < 3", 43 + 100),
        ("(" * 2000 + "n" + ")" * 2000 + " < 3", 43 + 100),
        ("- " * 101 + "n < 3", 43 + 2 * 100),
        ("n < " + "(" * 50 + "- " * 51 + "1" + ")" * 50, 43 + 4 + 50 + 2 * 50),
    ])
    def test_guard_past_the_bound(self, tmp_path, capsys, guard, column):
        model = write(tmp_path, "deep.tm", "machine a { stages Create, Process }\n"
                      f"flow f: a.Create -> a.Process on job when {guard}\n")
        assert main(["check", model]) == 2
        assert capsys.readouterr().err == (
            f"2:{column}: error[SYNTAX]: nesting deeper than 100 levels\n")

    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_every_command_runs_at_the_chain_bound(self, tmp_path, capsys, argv):
        """A guard, an action and a stop condition that are sums of 100
        operators, each one level deeper than the one before it."""
        model = write(tmp_path, "chain.tm", chain_model(_MAX_NESTING))
        scenario = write(tmp_path, "chain.tms", chain_scenario(_MAX_NESTING))
        argv = [argv[0], model, *(scenario if arg == "SCENARIO" else arg for arg in argv[1:])]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv[0] == "simulate":  # the token moved, ran the action and met the stop condition
            assert '"n": 101' in out if "json" in argv else "steps=1 " in out

    # The guard starts at column 45, and its k-th operator is 4k - 2
    # columns on; the column is that of the operator that opens level 101.
    @pytest.mark.parametrize("operators, column", [(101, 45 + 4 * 101 - 2), (2000, 45 + 4 * 101 - 2)])
    def test_chain_past_the_bound(self, tmp_path, capsys, operators, column):
        model = write(tmp_path, "chain.tm", chain_model(operators))
        for argv in (["check", model], ["behavior", model],
                     ["simulate", model, write(tmp_path, "chain.tms", chain_scenario(1))]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"3:{column}: error[SYNTAX]: nesting deeper than 100 levels\n")

    def test_action_chain_past_the_bound(self, tmp_path, capsys):
        model = write(tmp_path, "chain.tm", chain_model(1))
        scenario = write(tmp_path, "chain.tms", chain_scenario(2000))
        assert main(["simulate", model, scenario]) == 2
        assert capsys.readouterr().err == (
            f"3:{28 + 4 * 101 - 2}: error[SYNTAX]: nesting deeper than 100 levels\n")

    def test_stop_condition_past_the_bound(self, tmp_path, capsys):
        model = write(tmp_path, "deep.tm", nested_model(1, 1))
        scenario = write(tmp_path, "deep.tms", nested_scenario(1, 2000))
        assert main(["simulate", model, scenario]) == 2
        assert capsys.readouterr().err == (
            "3:113: error[SYNTAX]: nesting deeper than 100 levels\n")


LOAD_COMMANDS = [
    ["check"],
    ["check", "--format", "json"],
    ["events"],
    ["events", "--bound", "2"],
    ["behavior"],
    ["export"],
    ["export", "--format", "json"],
    ["simulate", "SCENARIO"],
]


class TestLoadFailures:
    """Every subcommand reports a model it cannot load once, with exit 2."""

    @pytest.fixture(params=["missing", "undecodable", "malformed"])
    def broken(self, request, tmp_path):
        model = tmp_path / "m.tm"
        if request.param == "missing":
            reason = f"[Errno 2] No such file or directory: '{model}'"
            return model, f"error[SYNTAX]: cannot read '{model}': {reason}"
        if request.param == "undecodable":
            model.write_bytes(b"machine a {\xff\n}\n")
            reason = ("'utf-8' codec can't decode byte 0xff in position 11: "
                      "invalid start byte")
            return model, f"error[SYNTAX]: cannot read '{model}': {reason}"
        model.write_text("machine a {\n  stages Create\n", encoding="utf-8")
        return model, "3:1: error[SYNTAX]: expected '}'"

    @pytest.mark.parametrize("command", LOAD_COMMANDS, ids=" ".join)
    def test_load_failure(self, command, broken, capsys):
        model, message = broken
        rest = [corpus("mousetrap.tms") if a == "SCENARIO" else a for a in command[1:]]
        assert main([command[0], str(model), *rest]) == 2
        out, err = capsys.readouterr()
        if "--format" in command and command[0] == "check":
            payload = json.loads(out)
            assert payload["ok"] is False
            [diag] = payload["diagnostics"]
            span = diag["span"]
            where = f"{span['line']}:{span['column']}: " if span else ""
            assert f"{where}{diag['severity']}[{diag['code']}]: {diag['message']}" == message
            assert err == ""
        else:
            assert out == ""
            assert err == message + "\n"


def emitted_codes() -> set[str]:
    """The diagnostic codes ``src`` can emit, read from its syntax trees:
    the first argument of each ``error(...)`` and ``warning(...)`` call,
    each ``code=`` keyword, and each default of a parameter named
    ``code``.  A code that is none of these literals would be computed;
    only the name of such a parameter may pass one on."""
    package = Path(tmflow.__file__).resolve().parent
    codes = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                found = [*(node.args[:1] if name in ("error", "warning") else []),
                         *(keyword.value for keyword in node.keywords if keyword.arg == "code")]
            elif isinstance(node, ast.arguments):
                params = [*node.posonlyargs, *node.args]
                pairs = [*zip(params[::-1], node.defaults[::-1]),
                         *zip(node.kwonlyargs, node.kw_defaults)]
                found = [default for arg, default in pairs if arg.arg == "code" and default]
            else:
                continue
            for value in found:
                if isinstance(value, ast.Name) and value.id == "code":
                    continue
                assert isinstance(value, ast.Constant), f"{path.name}:{value.lineno}"
                codes.add(value.value)
    return codes


def test_readme_lists_every_diagnostic_code():
    """Every code ``tm`` can print appears in the README's Diagnostics
    section."""
    codes = emitted_codes()
    readme = (Path(tmflow.__file__).resolve().parent.parent.parent
              / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    assert len(codes) >= 27
    assert sorted(code for code in codes if f"`{code}`" not in section) == []


def test_every_diagnostic_code_is_named_in_another_test():
    """Every code ``src`` can emit is named in some test other than this
    one, so a test reaches each."""
    own = inspect.getsource(test_every_diagnostic_code_is_named_in_another_test)
    text = "".join(path.read_text(encoding="utf-8")
                   for path in Path(__file__).resolve().parent.glob("test_*.py"))
    text = text.replace(own, "")
    assert sorted(code for code in emitted_codes()
                  if not re.search(rf"\b{code}\b", text)) == []


def test_every_tm_option_is_documented():
    """Every option of a ``tm`` subcommand appears in the README, as every
    defaulted parameter of the API is passed somewhere
    (``test_imports.py::test_every_public_function_is_used``)."""
    readme = (Path(tmflow.__file__).resolve().parent.parent.parent
              / "README.md").read_text(encoding="utf-8")
    options = {option for _, _, command_options, _ in _COMMANDS.values()
               for option in command_options}
    assert {"--format", "--out", "--mode", "--bound"} <= options
    assert sorted(option for option in options if option not in readme) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([name, "-h"] for name in _COMMANDS),
                                  ["simulate", "m.tm", "--format", "json", "--help"]],
                         ids=" ".join)
def test_help_names_every_option(capsys, argv):
    """``tm -h`` and ``tm CMD -h`` print the usage built from the command
    table to stdout, naming every option of the command (of all of them
    for ``tm -h``), and exit 0."""
    assert main(argv) == 0
    out, err = capsys.readouterr()
    commands = [argv[0]] if argv[0] in _COMMANDS else list(_COMMANDS)
    for name in commands:
        _, positionals, options, _ = _COMMANDS[name]
        assert f"tm {name} " + " ".join(positional.upper() for positional in positionals) in out
        assert [option for option in options if option not in out] == []
    assert err == ""


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``tm`` read its command line with before
    ``cli._COMMANDS``, kept as the reference that the reader is held to."""
    parser = argparse.ArgumentParser(
        prog="tm", description="Flow-machine model toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("model", help="model file (.tm)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("check", help="parse and statically validate a model")
    common(p)
    p.add_argument("--mode", choices=("overlap", "strict"), default="overlap")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("events", help="summarize regions or enumerate subdiagrams")
    common(p)
    p.add_argument("--bound", type=int,
                   help="enumerate subdiagrams up to this element count")
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("behavior", help="infer or validate the behavior graph")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("--mode", choices=("overlap", "strict"), default="overlap")
    p.set_defaults(func=_cmd_behavior)

    p = sub.add_parser("simulate", help="run a scenario and print the trace")
    common(p)
    p.add_argument("scenario", help="scenario file (.tms)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="render the model as DOT or JSON")
    common(p, formats=("dot", "json"))
    p.set_defaults(func=_cmd_export)
    return parser


# The words the drawn command lines are made of: the commands and one
# unknown one, paths (one of them '-', one a negative number), every
# option of every command and one unknown option, each with values valid
# and invalid for its kind.  Prefixes of options, '--' and '-h' are left
# out: the reader drops the first two, and prints usage on the third, as
# argparse did.
_ARGV_COMMANDS = [*_COMMANDS, "run"]
_ARGV_PATHS = ["m.tm", "s.tms", "-", "-1"]
_ARGV_VALUES = {
    "--format": ["text", "json", "dot", "xml", "-1", ""],
    "--mode": ["overlap", "strict", "lax"],
    "--bound": ["0", "3", "-1", "+2", " 4", "x", ""],
    "--out": ["o.txt", "-", "-2", ""],
    "--zzz": ["x"],
}


@st.composite
def command_lines(draw):
    """A ``tm`` command line: a command, then 0-3 positionals and 0-5
    options, each as ``--opt value``, ``--opt=value`` or a bare
    ``--opt``, in shuffled order.  Half the options are the command's
    own, and up to two are drawn again, so that a line the reference
    accepts often repeats one."""
    command = draw(st.sampled_from(_ARGV_COMMANDS))
    own = sorted(_COMMANDS[command][2]) if command in _COMMANDS else ["--zzz"]
    words = [[path] for path in draw(st.lists(st.sampled_from(_ARGV_PATHS), max_size=3))]
    options = draw(st.lists(st.sampled_from(own) | st.sampled_from(sorted(_ARGV_VALUES)),
                            max_size=3))
    options += draw(st.lists(st.sampled_from(options), max_size=2)) if options else []
    for option in options:
        value = draw(st.sampled_from(_ARGV_VALUES[option]))
        form = draw(st.sampled_from(["space", "space", "=", "bare"]))
        words.append([option, value] if form == "space" else
                     [f"{option}={value}"] if form == "=" else [option])
    words = draw(st.permutations(words))
    return [command, *(word for group in words for word in group)]


def option_values(argv: list[str], option: str) -> list[str]:
    """The values that a command line argparse accepted gives ``option``,
    in either form, the repeated ones too."""
    values = [value for word, value in zip(argv, argv[1:]) if word == option]
    return values + [word[len(option) + 1:] for word in argv
                     if word.startswith(option + "=")]


def divergences(argv: list[str]) -> set[str]:
    """The faults the reader finds in a command line that argparse
    accepted: a negative ``--bound``, which ``_cmd_events`` refused, and
    an ``--out`` of '-' or '', which wrote a file named '-' or to stdout."""
    return ({f"tm {argv[0]}: --bound must be >= 0"
             for value in option_values(argv, "--bound") if int(value) < 0}
            | {f"tm {argv[0]}: --out needs a file name, not '{value}'"
               for value in option_values(argv, "--out") if value in ("", "-")})


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(["events", "m.tm", "--bound", "-1", "--bound", "3"])
@example(["check", "--format", "json", "m.tm", "--format=text"])
@example(["check", "--out=-", "m.tm", "--out", "o.txt"])
@example(["check", "--bound= 4"])
@example(["export", "--out", "--bound= 4", "m.tm"])
@example(["events", "m.tm", "--bound= 4"])
@given(command_lines())
def test_the_reader_matches_argparse(argv):
    """Where argparse accepted a command line the reader gives the same
    values; where it exited 2, ``main`` prints one ``error[SYNTAX]`` line
    and nothing on stdout, and exits 2.  A negative ``--bound``, which
    argparse accepted and ``_cmd_events`` refused, and an ``--out`` of
    '-' or '', now stop ``main`` with the same line, also where a later
    value of the option overrides it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            expected = vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            expected = None
    if expected is not None and not divergences(argv):
        del expected["command"]
        got = vars(_read_argv(argv))
        assert {**got, "func": got["func"].__name__} == {
            **expected, "func": expected["func"].__name__}
        return
    with pytest.raises(_Unusable) as raised:
        _read_argv(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"error[SYNTAX]: {raised.value}\n")
    if expected is not None:
        assert str(raised.value) in divergences(argv)
