import importlib
import pkgutil
import random
import runpy
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

import tmflow
from tmflow.behavior import _stage_index
from tmflow.model import link

# Every submodule, loaded once per session before any test: only
# ``jsonio`` and ``dot`` load on demand, and a helper that patches a name
# in every loaded tmflow module (as ``test_linked.count_guard_parses``
# does) must see the same modules whatever ran before it.  A module first loaded while a patch is in
# place would keep the patched function for the rest of the session.
for _module in pkgutil.iter_modules(tmflow.__path__):
    importlib.import_module(f"tmflow.{_module.name}")

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

MODEL_FILES = sorted(CORPUS.glob("*.tm"))
SCENARIO_FILES = sorted(CORPUS.glob("*.tms"))


def perfbench_gen() -> dict:
    """The namespace of ``perfbench/gen.py``, the benchmark's seeded
    model and scenario generator."""
    return runpy.run_path(str(CORPUS.parent / "perfbench" / "gen.py"),
                          run_name="perfbench_gen")


@contextmanager
def tracing_memory():
    """Trace allocations with ``tracemalloc`` inside the block.  Tuples of
    fewer than 20 items are reused from free lists (2 000 of each length),
    which tracemalloc does not see: they are emptied first, and their
    tuples held until tracing stops, so that a reading does not depend on
    what ran before."""
    spare = [tuple(range(length)) for length in range(1, 20) for _ in range(2000)]
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        del spare


def index_bytes(text: str) -> tuple[int, int]:
    """Bytes held by the stage index of the model of ``text`` (its link
    built first, untraced, by ``tracemalloc``), and its number of stages
    and arcs."""
    linked = link(tmflow.parse(text).model).require()
    with tracing_memory():
        index = _stage_index(linked)
        held = tracemalloc.get_traced_memory()[0]
    return held, len(index.stages) + len(index.arc_ids)


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def corpus_doc(name: str) -> tmflow.Document:
    return tmflow.parse(corpus_text(name))


def corpus_scenario(name: str) -> tmflow.Scenario:
    return tmflow.parse_scenario(corpus_text(name))


def fuzz_texts():
    """10 000 seeded texts: random characters, corpus prefixes, corpus
    files with characters replaced, and shuffled corpus words."""
    rng = random.Random(20260823)
    seeds = [p.read_text(encoding="utf-8") for p in MODEL_FILES]
    seeds += [p.read_text(encoding="utf-8") for p in SCENARIO_FILES]
    alphabet = (
        "abcdefghijklmnopqrstuvwxyz0123456789 \n\t"
        '{}()[]<>.,;:=+-*/#"\'\\!@$%^&_~'
    )
    for i in range(10_000):
        kind = i % 4
        if kind == 0:
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 120))
            )
        elif kind == 1:
            base = rng.choice(seeds)
            cut = rng.randrange(0, len(base))
            text = base[:cut]
        elif kind == 2:
            base = list(rng.choice(seeds))
            for _ in range(rng.randrange(1, 8)):
                pos = rng.randrange(0, len(base))
                base[pos] = rng.choice(alphabet)
            text = "".join(base)
        else:
            words = rng.choice(seeds).split()
            rng.shuffle(words)
            text = " ".join(words[: rng.randrange(0, 40)])
        yield text


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with 1 to 5 characters replaced by printable ones."""
    chars = list(text)
    for _ in range(rng.randrange(1, 6)):
        chars[rng.randrange(len(chars))] = chr(rng.randrange(32, 127))
    return "".join(chars)


def mutated_models():
    """2 000 seeded corpus models, each with a few printable characters
    replaced."""
    rng = random.Random(7)
    seeds = [p.read_text(encoding="utf-8") for p in MODEL_FILES]
    for _ in range(2_000):
        yield mutate(rng, rng.choice(seeds))


def scenario_model(path: Path) -> Path:
    """The corpus model that the corpus scenario ``path`` runs against:
    the one with the longest name that starts the scenario's."""
    return max((model for model in MODEL_FILES if path.stem.startswith(model.stem)),
               key=lambda model: len(model.stem))


def mutated_scenarios(count: int = 1_000):
    """``count`` seeded corpus scenarios, each with a few printable
    characters replaced, each with the corpus model it runs against."""
    rng = random.Random(11)
    seeds = [(scenario_model(p), p.read_text(encoding="utf-8")) for p in SCENARIO_FILES]
    for _ in range(count):
        model, text = rng.choice(seeds)
        yield model, mutate(rng, text)


def nested_model(machines: int, parentheses: int) -> str:
    """Machines ``m0 .. m<machines-1>``, each inside the one before, and a
    flow in the innermost one whose guard sits in ``parentheses`` pairs."""
    lines = ["thing job { n: int }"]
    for depth in range(machines):
        lines.append("  " * depth + f"machine m{depth} {{ stages Create, Process")
    lines += ["  " * depth + "}" for depth in reversed(range(machines))]
    inner = f"m{machines - 1}"
    guard = "(" * parentheses + "n" + ")" * parentheses
    lines += [f"flow f: {inner}.Create -> {inner}.Process on job when {guard} < 3",
              f"regions {{\n  region r {{ stages {inner}.Create, {inner}.Process\n    arcs f\n  }}\n}}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture
def mousetrap() -> tmflow.Document:
    return corpus_doc("mousetrap.tm")


@pytest.fixture
def formula() -> tmflow.Document:
    return corpus_doc("formula.tm")


@pytest.fixture
def stack() -> tmflow.Document:
    return corpus_doc("stack.tm")


@pytest.fixture
def one_lane() -> tmflow.Document:
    return corpus_doc("one_lane_street.tm")


@pytest.fixture
def paint_dry() -> tmflow.Document:
    return corpus_doc("paint_dry.tm")


@pytest.fixture
def paint_control() -> tmflow.Document:
    return corpus_doc("paint_control.tm")


@pytest.fixture
def multiple_behaviors() -> tmflow.Document:
    return corpus_doc("multiple_behaviors.tm")


@pytest.fixture
def sugar_pipeline() -> tmflow.Document:
    return corpus_doc("sugar_pipeline.tm")
