import random
from pathlib import Path

import pytest

import tmflow

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

MODEL_FILES = sorted(CORPUS.glob("*.tm"))
SCENARIO_FILES = sorted(CORPUS.glob("*.tms"))


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


def mutated_models():
    """2 000 seeded corpus models, each with a few printable characters
    replaced."""
    rng = random.Random(7)
    seeds = [p.read_text(encoding="utf-8") for p in MODEL_FILES]
    for _ in range(2_000):
        base = list(rng.choice(seeds))
        for _ in range(rng.randrange(1, 6)):
            base[rng.randrange(len(base))] = chr(rng.randrange(32, 127))
        yield "".join(base)


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
