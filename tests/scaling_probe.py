"""Large-N probe of the static analyses on perfbench's static-large model.

    PYTHONPATH=src python tests/scaling_probe.py

For seed 3 and each size N of ``SIZES`` (units; the model text grows
about 4x from N = 480 to N = 1 920) it prints, best of ``REPS`` runs on
a freshly parsed model:

* ``parse``: ``tmflow.parse`` of the text, in ms and in MB of text per
  second, the front end that every analysis starts from;
* ``check``: ``cli._full_check`` less parse, the work of ``tm check``
  once the document is parsed;
* ``behavior``: ``infer_behavior`` less parse;
* ``census``: ``enumerate_subdiagrams`` at bound 3 per subdiagram found,
  with the stage index warm;
* ``index``: the bytes the model's stage index holds (``tracemalloc``),
  in all and per stage or arc;

then the growth ratio of each figure from the first size to the last.
Linear work grows about as the text does, and a linear parse keeps its
MB/s.  The timings are taken with the cyclic collector off, so that they
show the analyses' own work; ``parse``, ``check`` and ``behavior`` are
also shown with it on (``+gc``), as ``tm`` runs them: a full collection
that falls at one size and not at the other can move those figures far
more than the analyses' own work does.  No
figure here is a gate: the file has no ``test_`` prefix, so pytest does
not collect it.
"""

from __future__ import annotations

import gc
import time

import tmflow
from tmflow.cli import _full_check

from conftest import index_bytes, perfbench_gen

SIZES = (480, 1920)
SEED = 3
REPS = 7
BOUND = 3


def seconds(work, arg, collect: bool) -> tuple[float, object]:
    """The seconds ``work(arg)`` takes, with the collector on if
    ``collect``, and its result."""
    gc.collect()
    if not collect:
        gc.disable()
    try:
        start = time.perf_counter()
        result = work(arg)
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def one_run(n: int, text: str) -> dict[str, float]:
    """One timing of each figure on fresh parses of ``text`` (parse
    untimed)."""
    figures = {}
    for suffix, collect in [("_ms", False), ("+gc_ms", True)]:
        taken, _ = seconds(tmflow.parse, text, collect)
        figures["parse" + suffix] = taken * 1e3
    for name, work in [("check", lambda doc: _full_check(doc, "overlap")),
                       ("behavior", lambda doc: tmflow.infer_behavior(doc.model, doc.regions))]:
        for suffix, collect in [("_ms", False), ("+gc_ms", True)]:
            taken, result = seconds(work, tmflow.parse(text), collect)
            figures[name + suffix] = taken * 1e3
        if name == "check" and not result.ok:
            raise SystemExit(f"N = {n}: the model does not check:\n{result}")
    model = tmflow.parse(text).model
    subs = len(tmflow.enumerate_subdiagrams(model, BOUND))  # warms the index
    taken, _ = seconds(lambda model: tmflow.enumerate_subdiagrams(model, BOUND), model, False)
    figures["census_us_per_sub"] = taken / subs * 1e6
    return figures


def main() -> None:
    gen = perfbench_gen()
    texts = {n: gen["static_large"](SEED, n).model for n in SIZES}
    rows: dict[int, dict[str, float]] = {n: {"text_kb": len(texts[n]) / 1e3} for n in SIZES}
    # The sizes take turns, so that a slow spell of a shared machine
    # falls on each of them.
    for _ in range(REPS):
        for n in SIZES:
            for name, value in one_run(n, texts[n]).items():
                rows[n][name] = min(rows[n].get(name, value), value)
    for n in SIZES:
        held, elements = index_bytes(texts[n])
        mb = len(texts[n].encode()) / 1e6
        rows[n].update(parse_mb_s=mb / rows[n]["parse_ms"] * 1e3,
                       parse_gc_mb_s=mb / rows[n]["parse+gc_ms"] * 1e3,
                       index_mb=held / 1e6, index_b_per_elem=held / elements)
    print(f"static_large seed {SEED}, census bound {BOUND}, best of {REPS}")
    print(f"{'N':>18} " + " ".join(f"{n:>10}" for n in SIZES) + f" {'growth':>10}")
    first, last = rows[SIZES[0]], rows[SIZES[-1]]
    for name in first:
        print(f"{name:>18} " + " ".join(f"{rows[n][name]:>10.2f}" for n in SIZES)
              + f" {last[name] / first[name]:>9.2f}x")


if __name__ == "__main__":
    main()
