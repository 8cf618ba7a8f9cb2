import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tmflow
import tmflow.behavior as behavior
from tmflow.cli import main
from tmflow.exprs import _MAX_NESTING

from conftest import CORPUS, nested_model


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

    def test_max_steps_override(self, capsys):
        assert main(["simulate", corpus("formula.tm"), corpus("formula.tms"),
                     "--max-steps", "5"]) == 0
        assert "limit_hit=yes" in capsys.readouterr().out

    def test_seed_option_runs_the_scenario_with_that_seed(self, tmp_path, capsys):
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
        for seed, expected in in_file.items():
            assert output(scenario(0), "--seed", str(seed)) == expected

    def test_nonconformant_trace_exits_one_after_its_verdict(self, tmp_path, capsys):
        scenario = write(tmp_path, "late.tms",
                         "scenario late {\n  token c of coat at dry.Transfer\n}\n")
        assert main(["simulate", corpus("paint_dry.tm"), scenario]) == 1
        out, err = capsys.readouterr()
        verdict = "error[NOT_INITIAL]: trace starts at non-initial event 'dry' (steps 1..2)"
        assert err == verdict + "\n"
        assert out.splitlines()[-1] == "conformance: " + verdict

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
    ])
    def test_unknown_machine_is_a_diagnostic(self, tmp_path, capsys, argv):
        model = write(tmp_path, "m.tm", UNKNOWN_MACHINE_TM)
        assert main([argv[0], model, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err == "4:1: error[UNRESOLVED]: flow 'f2': no machine matches path 'nosuch'\n"

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
            "error[SIMULATION]: cannot order int against str\n"
        )


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
    def test_max_steps_below_one_exits_two(self, capsys):
        assert main(["simulate", corpus("formula.tm"), corpus("formula.tms"),
                     "--max-steps", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error[SYNTAX]: --max-steps must be >= 1\n"
        assert captured.out == ""

    def test_negative_bound_exits_two(self, capsys):
        assert main(["events", corpus("multiple_behaviors.tm"), "--bound", "-1"]) == 2
        assert capsys.readouterr() == ("", "error[SYNTAX]: --bound must be >= 0\n")

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


class TestNesting:
    """Machines, parentheses and unary minuses nest at most
    ``_MAX_NESTING`` deep; a deeper level is one SYNTAX error at the
    lexeme that opens it, not a RecursionError."""

    @pytest.mark.parametrize("argv", [
        ["check"], ["check", "--format", "json"], ["events"], ["events", "--bound", "2"],
        ["behavior"], ["behavior", "--format", "json"], ["export"],
        ["export", "--format", "json"], ["simulate", "SCENARIO"],
        ["simulate", "SCENARIO", "--format", "json"],
    ])
    def test_every_command_runs_at_the_bound(self, tmp_path, capsys, argv):
        model = write(tmp_path, "deep.tm", nested_model(_MAX_NESTING, _MAX_NESTING))
        scenario = write(tmp_path, "deep.tms", nested_scenario(_MAX_NESTING, _MAX_NESTING))
        argv = [argv[0], model, *(scenario if arg == "SCENARIO" else arg for arg in argv[1:])]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

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
    """The diagnostic codes ``src`` can emit: each ``error("CODE"``,
    ``warning("CODE"``, ``code="CODE"`` and ``error[CODE]``."""
    pattern = re.compile(r'\b(?:error|warning)\(\s*"([A-Z_]+)"'
                         r'|\bcode="([A-Z_]+)"|error\[([A-Z_]+)\]')
    package = Path(tmflow.__file__).resolve().parent
    return {next(filter(None, match.groups()))
            for path in package.glob("*.py")
            for match in pattern.finditer(path.read_text(encoding="utf-8"))}


def test_readme_lists_every_diagnostic_code():
    """Every code ``tm`` can print appears in the README's Diagnostics
    section."""
    codes = emitted_codes()
    readme = (Path(tmflow.__file__).resolve().parent.parent.parent
              / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    assert len(codes) >= 26
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
