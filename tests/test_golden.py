"""Byte-identity of the `tm` command line over the whole corpus.

``golden/cli_sweep.json`` holds, for every command of ``sweep()``, its
argv, its exit code and the sha256 of its stdout and of its stderr, run
in-process from the repository root with ``TM_COLOR=never``.  A change
that alters any output byte on the corpus fails here.  After a change
meant to alter output, regenerate the file from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_sweep.json"

MODEL_COMMANDS = [
    ["check"],
    ["check", "--format", "json"],
    ["events"],
    ["events", "--bound", "3"],
    ["behavior"],
    ["behavior", "--format", "json"],
    ["export"],
    ["export", "--format", "json"],
]


def sweep() -> list[list[str]]:
    """Every model command on every corpus `.tm` and `.tmb`, then
    `simulate` (text and JSON) on every `.tm` x `.tms` pair."""
    corpus = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").iterdir())
    models = [p for p in corpus if p.endswith((".tm", ".tmb"))]
    scenarios = [p for p in corpus if p.endswith(".tms")]
    argvs = [[cmd[0], model, *cmd[1:]] for model in models for cmd in MODEL_COMMANDS]
    for model in (m for m in models if m.endswith(".tm")):
        for scenario in scenarios:
            argvs.append(["simulate", model, scenario])
            argvs.append(["simulate", model, scenario, "--format", "json"])
    return argvs


def run(argv: list[str]) -> dict:
    from tmflow.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def test_cli_output_matches_the_golden_sweep(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("TM_COLOR", "never")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == sweep()
    for entry in golden:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["TM_COLOR"] = "never"
    sys.path.insert(0, str(ROOT / "src"))
    records = [run(argv) for argv in sweep()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} commands written to {GOLDEN.relative_to(ROOT)}")
