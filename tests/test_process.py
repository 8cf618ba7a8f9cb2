"""The ``tm`` process against the in-process API.

``cli.run`` is the ``tm`` process: ``cli.main``, then the ``atexit``
handlers, a flush of stdout and stderr, and ``os._exit``.  These tests
run it as ``python -m tmflow.cli`` in a child and hold its exit code,
stdout, stderr and ``--out`` file to those of ``cli.main`` run in this
process, with the child's stdout block-buffered (``PYTHONUNBUFFERED``
removed), so that output lost at the end of the process would show.
They also pin the ends of a run: a reader that goes away early, an
``atexit`` handler, and an exception out of ``main``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tmflow
from tmflow.cli import main

from conftest import perfbench_gen

SRC = Path(tmflow.__file__).resolve().parent.parent
ROOT = SRC.parent
PIPE_BUFFER = 64 * 1024  # Linux's default pipe capacity
CENSUS = ["events", "corpus/multiple_behaviors.tm", "--bound", "3"]


def child_env(unbuffered: bool = False) -> dict[str, str]:
    """The environment of a ``tm`` child: this one's, with stdout
    block-buffered unless ``unbuffered``."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def tm_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "tmflow.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, timeout=120)


def quick_tour() -> list[list[str]]:
    """The ``tm`` command lines of the README's quick tour."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick tour\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


@pytest.fixture(scope="module")
def large_trace(tmp_path_factory) -> tuple[str, str]:
    """A generated sim-tokens model and scenario whose trace, in either
    format, is larger than a pipe holds."""
    chain = perfbench_gen()["sim_tokens"](3, 4)
    folder = tmp_path_factory.mktemp("large")
    (folder / "m.tm").write_text(chain.model, encoding="utf-8")
    (folder / "m.tms").write_text(chain.scenario, encoding="utf-8")
    return str(folder / "m.tm"), str(folder / "m.tms")


def test_the_quick_tour_is_read():
    assert [argv[0] for argv in quick_tour()] == [
        "check", "events", "events", "behavior", "behavior", "simulate", "export"]


def with_out(argv: list[str], path: Path) -> list[str]:
    """``argv`` with its ``--out`` value, if any, replaced by ``path``."""
    at = argv.index("--out") + 1 if "--out" in argv else None
    return argv if at is None else [*argv[:at], str(path), *argv[at + 1:]]


@pytest.mark.parametrize("argv", [
    *quick_tour(),
    ["check", "corpus/one_lane_street.tm", "--format", "json"],  # exit 0
    ["behavior", "corpus/sugar_pipeline.tm"],                    # exit 1
    ["simulate", "corpus/stack.tm", "corpus/mousetrap.tms"],     # exit 1
    ["check", "corpus/missing.tm"],                              # exit 2
    ["events", "corpus/mousetrap.tm", "--bound", "x"],           # exit 2
    ["-h"],
    ["simulate", "-h"],
    ["check", "corpus/paint_dry.tm", "--out", "report.txt"],
], ids=" ".join)
def test_the_process_ends_as_main_returns(argv, tmp_path, capsys, monkeypatch):
    """Exit code, stdout, stderr and the ``--out`` file's bytes of ``tm``
    as a process are those of ``cli.main``."""
    child = tm_child(with_out(argv, tmp_path / "child.out"))
    monkeypatch.chdir(ROOT)
    code = main(with_out(argv, tmp_path / "main.out"))
    out, err = capsys.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (
        code, out.encode(), err.encode())
    if "--out" in argv:
        assert (tmp_path / "child.out").read_bytes() == (tmp_path / "main.out").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_trace_larger_than_a_pipe_arrives_whole(large_trace, fmt, capsys):
    argv = ["simulate", *large_trace, "--format", fmt]
    child = tm_child(argv)
    code = main(argv)
    out, err = capsys.readouterr()
    assert len(out.encode()) > PIPE_BUFFER
    assert (child.returncode, child.stdout, child.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("what", ["text trace", "json trace", "census"])
def test_a_reader_that_leaves_after_one_line(large_trace, what, unbuffered):
    """A reader that closes the pipe after the first line (``tm ... | head
    -1``) ends ``tm`` with exit 0 and nothing on stderr."""
    argv = (CENSUS if what == "census" else
            ["simulate", *large_trace, "--format", what.split()[0]])
    child = subprocess.Popen([sys.executable, "-m", "tmflow.cli", *argv], cwd=ROOT,
                             env=child_env(unbuffered), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert first.strip()
    assert (child.returncode, err) == (0, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["check", "corpus/one_lane_street.tm"], CENSUS],
                         ids=" ".join)
def test_a_reader_that_left_before_the_start(argv, unbuffered):
    """A pipe whose reader is gone before ``tm`` starts: output small
    enough to sit in the stdout buffer meets the broken pipe at the final
    flush, and ends as a broken pipe during the command does."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "tmflow.cli", *argv], cwd=ROOT,
                               env=child_env(unbuffered), stdout=write_end,
                               stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (0, b"")


def python_child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def test_atexit_handlers_run_before_the_flush():
    """A handler registered before ``run`` runs, its buffered output
    arrives, and the exit code is still ``main``'s."""
    child = python_child(
        "import atexit, sys\n"
        "from tmflow import cli\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['tm', 'check', 'corpus/missing.tm']\n"
        "cli.run()\n")
    assert child.returncode == 2
    assert child.stdout == "handler ran\n"
    assert child.stderr.startswith("error[SYNTAX]: cannot read 'corpus/missing.tm'")


def test_an_exception_out_of_main_is_a_traceback():
    """``run`` does not end a process whose ``main`` raised: the
    interpreter prints the traceback and exits 1, as it always did."""
    child = python_child(
        "from tmflow import cli\n"
        "def main():\n"
        "    print('partial output')\n"
        "    raise RuntimeError('boom')\n"
        "cli.main = main\n"
        "cli.run()\n")
    assert child.returncode == 1
    assert child.stdout == "partial output\n"
    assert child.stderr.startswith("Traceback (most recent call last):")
    assert child.stderr.endswith("RuntimeError: boom\n")
