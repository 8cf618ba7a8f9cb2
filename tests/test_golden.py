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
diagnostics or scenario.  Beside each chunk's sha256 it keeps the first 8
hex digits of each text's own sha256.  A change that alters what the
parser makes of any of them fails here, naming the texts that moved and
their diagnostics now.

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
    ["events", "--format", "json"],
    ["events", "--bound", "3"],
    ["events", "--bound", "3", "--format", "json"],
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


def parse_parts(text: str) -> tuple[list[str], str, list[str]]:
    """What the parser makes of one text: the file's diagnostics, the
    serialized partial document, and the scenario or its diagnostics."""
    from tmflow import TMParseError, parse_scenario, parse_with_diagnostics, serialize

    def diagnostics(found) -> list[str]:
        return [f"{d}|{d.span.length if d.span else '-'}" for d in found]

    doc, found = parse_with_diagnostics(text)
    try:
        scenario = [repr(parse_scenario(text))]
    except TMParseError as exc:
        scenario = diagnostics(exc.diagnostics)
    return diagnostics(found), serialize(doc), scenario


def parse_record(text: str) -> str:
    """What the parser makes of one text, as a string."""
    found, doc, scenario = parse_parts(text)
    return "\x00".join([*found, doc, *scenario])


def fuzz_inputs() -> list[str]:
    from conftest import fuzz_texts, mutated_models

    return [*fuzz_texts(), *mutated_models()]


def text_digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:8]


def chunk_digest(records: list[str]) -> str:
    sha = hashlib.sha256()
    for record in records:
        sha.update(record.encode())
        sha.update(b"\x01")
    return sha.hexdigest()


def parse_sweep(texts: list[str]) -> list[dict]:
    """Per ``CHUNK`` texts, the sha256 of their records and, to name the
    texts that moved, the first 8 hex digits of each record's sha256."""
    chunks = []
    for start in range(0, len(texts), CHUNK):
        records = [parse_record(text) for text in texts[start:start + CHUNK]]
        chunks.append({
            "sha256": chunk_digest(records),
            "texts": " ".join(text_digest(record) for record in records),
        })
    return chunks


def test_parser_output_matches_the_golden_sweep():
    golden = json.loads(PARSE_GOLDEN.read_text(encoding="utf-8"))
    texts = fuzz_inputs()
    chunks = parse_sweep(texts)
    assert len(chunks) == len(golden)
    moved = []
    for n, (chunk, expected) in enumerate(zip(chunks, golden)):
        if chunk["sha256"] == expected["sha256"]:
            continue
        pairs = zip(chunk["texts"].split(), expected["texts"].split())
        moved += [n * CHUNK + i for i, (now, was) in enumerate(pairs) if now != was]
    assert not moved and chunks == golden, "\n".join(
        [f"{len(moved)} texts moved: {moved}"]
        + [f"text {i}: {parse_parts(texts[i])[0]} scenario: {parse_parts(texts[i])[2]}"
           for i in moved[:50]]
    )


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["TM_COLOR"] = "never"
    sys.path.insert(0, str(ROOT / "src"))
    records = [run(argv) for argv in sweep()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} commands written to {GOLDEN.relative_to(ROOT)}")
    chunks = parse_sweep(fuzz_inputs())
    PARSE_GOLDEN.write_text(json.dumps(chunks, indent=1) + "\n", encoding="utf-8")
    print(f"{len(chunks)} chunks written to {PARSE_GOLDEN.relative_to(ROOT)}")
