"""Byte-identity of the `tm` command line over the whole corpus, and of
the parser's diagnostics over the fuzzed inputs.

``golden/cli_sweep.json`` holds, for every command of ``sweep()``, its
argv, its exit code and the sha256 of its stdout and of its stderr, run
in-process from the repository root with ``TM_COLOR=never``.  A change
that alters any output byte on the corpus fails here.

``golden/parse_fuzz.json`` holds one sha256 per 100 of the 12 000
fuzzed texts of ``conftest.fuzz_texts`` and ``conftest.mutated_models``,
over each text's ``parse_with_diagnostics`` diagnostics (with span
lengths), the ``serialize``d partial document, and the ``parse_scenario``
diagnostics or scenario.  A change that alters what the parser makes of
any of them fails here, naming the chunk.

After a change meant to alter output, regenerate both files from the
repository root:

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
PARSE_GOLDEN = ROOT / "tests" / "golden" / "parse_fuzz.json"
CHUNK = 100

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


def parse_record(text: str) -> str:
    """What the parser makes of one text, as a string."""
    from tmflow import TMParseError, parse_scenario, parse_with_diagnostics, serialize

    def diagnostics(found) -> list[str]:
        return [f"{d}|{d.span.length if d.span else '-'}" for d in found]

    doc, found = parse_with_diagnostics(text)
    parts = diagnostics(found) + [serialize(doc)]
    try:
        parts.append(repr(parse_scenario(text)))
    except TMParseError as exc:
        parts += diagnostics(exc.diagnostics)
    return "\x00".join(parts)


def parse_sweep() -> list[str]:
    """One sha256 per ``CHUNK`` fuzzed texts."""
    from conftest import fuzz_texts, mutated_models

    texts = [*fuzz_texts(), *mutated_models()]
    digests = []
    for start in range(0, len(texts), CHUNK):
        sha = hashlib.sha256()
        for text in texts[start:start + CHUNK]:
            sha.update(parse_record(text).encode())
            sha.update(b"\x01")
        digests.append(sha.hexdigest())
    return digests


def test_parser_output_matches_the_golden_sweep():
    golden = json.loads(PARSE_GOLDEN.read_text(encoding="utf-8"))
    digests = parse_sweep()
    assert len(digests) == len(golden)
    for n, (digest, expected) in enumerate(zip(digests, golden)):
        assert digest == expected, f"chunk {n}: inputs {n * CHUNK}-{(n + 1) * CHUNK - 1}"


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["TM_COLOR"] = "never"
    sys.path.insert(0, str(ROOT / "src"))
    records = [run(argv) for argv in sweep()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} commands written to {GOLDEN.relative_to(ROOT)}")
    digests = parse_sweep()
    PARSE_GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"{len(digests)} chunks written to {PARSE_GOLDEN.relative_to(ROOT)}")
