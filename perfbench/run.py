"""Seeded benchmark for tmflow, from model text to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md):

* static-large: a generated model of 2N machines through the check,
  behavior, census, export and simulate paths in-process, plus `tm check`
  on it as a subprocess.  Static analysis dominates.
* sim-tokens: a guarded pipeline with hundreds of injected tokens through
  the same paths; the simulate path dominates.
* corpus-cli: the README quick tour, `tm check` on every corpus model and
  `tm simulate` on every corpus scenario, each as a `tm` subprocess, plus
  the same pipelines in-process.  Start-up and per-model fixed costs
  dominate.

Every run repeats whole rounds of its operations until ``--seconds`` have
passed, checks every output, and prints one JSON line last: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics, taken from spans recorded around each call into a layer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))
try:
    import tmflow
    from tmflow import cli, dot, jsonio
    from tmflow.exprs import GuardTypeError, eval_guard, names, parse_guard
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tmflow from {SRC}: {exc}")
if not Path(tmflow.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: tmflow was imported from {tmflow.__file__}, not {SRC}")

import checks  # noqa: E402
import gen  # noqa: E402

# Span name prefixes: tmflow's modules, and the benchmark's own glue.
LAYERS = ("parser", "model", "validate", "behavior", "simulate", "jsonio", "dot",
          "cli", "bench")
SETUP_PROBES = 7   # fresh interpreters timed for setup_s
CALIBRATION_S = 0.002  # the calibration loop's time at the reference speed (README)
BARE_START_S = 0.06    # a bare interpreter's run at the reference speed (README)
MICRO_REPEAT = 5   # repeats of each per-layer micro-measurement
# Subprocesses import tmflow from src and keep its bytecode under WORK, as
# an installed package would, whatever the caller's bytecode settings.
TM_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
TM_ENV.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
              TM_COLOR="never")


class Failed(Exception):
    """An operation did not give the answer a correct tmflow gives."""


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, size].

    With ``on`` false, ``call`` and ``span`` add nothing but the call.
    """

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name: str, fn, *args, size: int = 0):
        if not self.on:
            return fn(*args)
        with self.span(name, size):
            return fn(*args)

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        if not self.on:
            yield
            return
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, size])
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name's first component), each span's
        duration less the part its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name.split(".")[0]] += end - start - child[k]
        return total

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")


# ---------------------------------------------------------------------------
# Operations: the paths `tm` takes, through tmflow's public functions


def op_check(tr: Tracer, text: str):
    """Model text to the full static verdict (the `tm check` path)."""
    doc = tr.call("parser.parse", tmflow.parse, text, size=len(text))
    report = tr.call("validate.validate", tmflow.validate, doc.model)
    if doc.regions:
        report.extend(tr.call("behavior.check_regions", tmflow.check_regions,
                              doc.model, doc.regions))
        if report.ok and doc.behavior is not None:
            report.extend(tr.call("behavior.validate_behavior", tmflow.validate_behavior,
                                  doc.model, doc.regions, doc.behavior))
    return doc, report


def op_behavior(tr: Tracer, text: str):
    """Model text to the inferred behavior graph."""
    doc = tr.call("parser.parse", tmflow.parse, text, size=len(text))
    return tr.call("behavior.infer_behavior", tmflow.infer_behavior, doc.model, doc.regions)


def op_census(tr: Tracer, text: str, bound: int):
    """Model text to the subdiagram list at a fixed bound."""
    doc = tr.call("parser.parse", tmflow.parse, text, size=len(text))
    return tr.call("behavior.enumerate_subdiagrams", tmflow.enumerate_subdiagrams,
                   doc.model, bound)


def op_export(tr: Tracer, text: str):
    """Model text rendered to DOT and to JSON."""
    doc = tr.call("parser.parse", tmflow.parse, text, size=len(text))
    dot_text = tr.call("dot.model_to_dot", dot.model_to_dot, doc.model)
    obj = tr.call("jsonio.model_to_obj", jsonio.model_to_obj, doc.model)
    return dot_text, jsonio.dumps(obj)


def op_simulate(tr: Tracer, model_text: str, scenario_text: str):
    """Model and scenario text to the conformance verdict and JSONL trace
    (the `tm simulate` path)."""
    doc = tr.call("parser.parse", tmflow.parse, model_text, size=len(model_text))
    scenario = tr.call("parser.parse_scenario", tmflow.parse_scenario, scenario_text,
                       size=len(scenario_text))
    model = tr.call("model.desugar", tmflow.desugar, doc.model)
    trace = tr.call("simulate.simulate", tmflow.simulate, model, scenario)
    seg = tr.call("simulate.segment", tmflow.segment, trace, doc.regions)
    graph = doc.behavior
    if graph is None:
        graph = tr.call("behavior.infer_behavior", tmflow.infer_behavior,
                        doc.model, doc.regions)
    verdict = tr.call("simulate.conformance", tmflow.conformance, seg.occurrences, graph)
    jsonl = tr.call("jsonio.trace_to_jsonl", jsonio.trace_to_jsonl, trace)
    return doc, trace, seg, verdict, jsonl


# ---------------------------------------------------------------------------
# Subprocesses


def spawn(argv: list[str]) -> tuple[int, str, str, float, int]:
    """Run one process to its end: exit code, stdout, stderr, wall
    seconds and peak RSS in KiB."""
    out, err = WORK / "stdout", WORK / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], TM_ENV,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), out.read_text(), err.read_text(),
            wall, usage.ru_maxrss)


def run_tm(tr: Tracer, args: list[str]) -> tuple[int, str, str, float, int]:
    with tr.span("cli.subprocess"):
        return spawn(["-m", "tmflow.cli", *args])


def calibration_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (tuple keys, dict
    updates, small strings), independent of tmflow."""
    start = time.perf_counter()
    table: dict = {}
    names = []
    for i in range(6000):
        key = ("m", i & 127)
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            names.append(f"s{i}")
    return time.perf_counter() - start


def calibrated(fn, *args):
    """Run ``fn`` between two calibration loops: its result, its wall
    seconds, and those seconds scaled to the reference speed.

    The speed of a shared machine drifts by up to 2x within seconds;
    the ratio of an operation's time to the calibration loop's around it
    does not (see README)."""
    before = calibration_loop()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = calibration_loop()
    return result, wall, wall * 2 * CALIBRATION_S / (before + after)


class BareStart:
    """Scales subprocess times to the reference speed by the run of a bare
    interpreter (``python -c pass``) before and after each.  Process
    start-up follows the machine's speed less than Python code does, so
    subprocesses get this reference rather than the calibration loop."""

    def __init__(self):
        self.last: tuple[float, float] | None = None  # (seconds, taken at)

    def measure(self) -> float:
        seconds = spawn(["-c", "pass"])[3]
        self.last = (seconds, time.perf_counter())
        return seconds

    def timed(self, fn, *args):
        """Like ``calibrated``.  A reference taken under a second ago
        serves as the next operation's "before"."""
        if self.last is None or time.perf_counter() - self.last[1] > 1.0:
            self.measure()
        before = self.last[0]
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self.measure()
        return result, wall, wall * 2 * BARE_START_S / (before + after)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A seeded set of inputs and one round of operations over them.

    ``round`` runs every operation once, appends end-to-end samples to
    ``self.samples`` and returns (attempted, failed).  It raises Failed
    when an output is wrong.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)  # calibrated
        self.raw: dict[str, list[float]] = defaultdict(list)      # wall seconds
        self.child_rss_kb = 0
        self.bare = BareStart()
        self.round_total = 0.0  # calibrated seconds of the current round's operations

    def timed(self, tr: Tracer, name: str, fn, *args):
        """Run one operation; record its time under ``{name}_s``."""
        with tr.span(f"bench.{name}"):
            result, wall, seconds = calibrated(fn, *args)
        self.samples[f"{name}_s"].append(seconds)
        self.raw[f"{name}_s"].append(wall)
        self.round_total += seconds
        self.raw["calibration_s"].append(wall * CALIBRATION_S / seconds)
        return result

    def tm(self, tr: Tracer, args: list[str], metric: str | None = None):
        """Run one `tm` subprocess; its time counts for ``cli_cmd_s`` and
        for ``metric``.  Returns exit code, stdout, stderr, calibrated seconds."""
        with tr.span("bench.cli"):
            (code, out, err, _, rss), wall, seconds = self.bare.timed(run_tm, tr, args)
        self.child_rss_kb = max(self.child_rss_kb, rss)
        self.round_total += seconds
        for name in filter(None, (metric, "cli_cmd_s")):
            self.samples[name].append(seconds)
            self.raw[name].append(wall)
        self.raw["bare_start_s"].append(wall * BARE_START_S / seconds)
        return code, out, err, seconds

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the run's `tm` subprocesses.  (This
        process also holds the expected answers, so it is not counted.)"""
        return self.child_rss_kb / 1024


class ChainWorkload(Workload):
    """static-large and sim-tokens: one generated chain model, run in-process."""

    def __init__(self, seed: int, chain: gen.Chain, cli_args: list[str]):
        super().__init__(seed)
        self.c = chain
        e = chain.expected
        self.arcs = {a[0]: (a[2], a[3]) for a in e["arcs"]}
        self.census_count: int | None = None
        self.first: dict[str, object] = {}
        WORK.mkdir(exist_ok=True)
        self.model_path = WORK / f"model-{seed}.tm"
        self.scenario_path = WORK / f"model-{seed}.tms"
        self.model_path.write_text(chain.model)
        self.scenario_path.write_text(chain.scenario)
        self.cli_args = [a.format(model=self.model_path, scenario=self.scenario_path)
                         for a in cli_args]

    def same_as_first(self, key: str, value) -> bool:
        """Later outputs must equal the first one, which was fully checked."""
        if key in self.first:
            if self.first[key] != value:
                raise Failed(f"{key}: output differs from the first run")
            return True
        self.first[key] = value
        return False

    def round(self, tr: Tracer) -> tuple[int, int]:
        e = self.c.expected
        doc, report = self.timed(tr, "check", op_check, tr, self.c.model)
        self.check_report(doc, report)
        graph = self.timed(tr, "behavior", op_behavior, tr, self.c.model)
        got = {"events": [ev.id for ev in graph.events],
               "edges": [list(x) for x in graph.edges], "initial": list(graph.initial)}
        if got != e["graph"]:
            raise Failed("infer_behavior differs from the generated graph")
        subs = self.timed(tr, "census", op_census, tr, self.c.model, e["census_bound"])
        if not self.same_as_first("census", subs):
            if self.census_count is None:
                self.census_count = checks.count_subdiagrams(
                    e["stages"], self.arcs, e["census_bound"])
            if not checks.census_ok(subs, self.arcs, e["census_bound"], self.census_count):
                raise Failed("census: a subdiagram is wrong or the count differs")
        dot_text, json_text = self.timed(tr, "export", op_export, tr, self.c.model)
        if not self.same_as_first("export", (dot_text, json_text)):
            self.check_export(dot_text, json_text)
        sim = self.timed(tr, "simulate", op_simulate, tr, self.c.model, self.c.scenario)
        self.samples["records_per_s"].append(
            len(e["records"]) / self.samples["simulate_s"][-1])
        self.check_simulation(*sim)
        code, out, err, _ = self.tm(tr, self.cli_args)
        self.check_cli(code, out, err)
        return 6, 0

    def check_report(self, doc, report) -> None:
        opposing = []
        for d in report.diagnostics:
            if d.code != "OPPOSING_FLOWS":
                raise Failed(f"unexpected diagnostic: {d}")
            a, b = d.message.split("'")[3], d.message.split("'")[5]
            opposing.append(f"{a}|{b}")
        if sorted(opposing) != self.c.expected["opposing"]:
            raise Failed("OPPOSING_FLOWS warnings differ from the generated ones")
        if not self.same_as_first("roundtrip", True):
            if tmflow.parse(tmflow.serialize(doc)) != doc:
                raise Failed("parse(serialize(doc)) != doc")

    def check_export(self, dot_text: str, json_text: str) -> None:
        want = Counter((a[2], a[3]) for a in self.c.expected["arcs"])
        if checks.dot_edges(dot_text) != want:
            raise Failed("DOT export does not carry every arc")
        obj = json.loads(json_text)
        ids = [a["id"] for a in obj["flows"] + obj["triggers"]]
        if sorted(ids) != sorted(a[0] for a in self.c.expected["arcs"]):
            raise Failed("JSON export does not carry every arc")

    def check_simulation(self, doc, trace, seg, verdict, jsonl) -> None:
        e = self.c.expected
        if self.same_as_first("jsonl", jsonl):
            return
        if checks.records(trace) != [tuple(r) for r in e["records"]]:
            raise Failed("trace records differ from the generated ones")
        meta = trace.meta
        got_meta = {"steps_used": meta.steps_used, "step_limit_hit": meta.step_limit_hit,
                    "created": meta.created, "consumed": meta.consumed}
        if got_meta != e["meta"]:
            raise Failed(f"trace meta {got_meta} != {e['meta']}")
        final = {t.id: {"attrs": t.attrs, "at": str(t.at), "arrived": t.arrived}
                 for t in trace.final_tokens}
        if final != e["final"]:
            raise Failed("final tokens differ from the generated ones")
        occ = checks.segment([(r.step, r.arc) for r in trace.records], e["arc_region"])
        got_occ = [(o.region, o.interval.start, o.interval.duration) for o in seg.occurrences]
        if got_occ != occ:
            raise Failed("segmentation differs from the recomputed occurrences")
        graph = e["graph"]
        if not checks.conforms([o[0] for o in occ], graph["edges"], graph["initial"]):
            raise Failed("the generated trace does not conform to the generated graph")
        if not verdict.ok:
            raise Failed(f"conformance failed: {verdict}")
        if not checks.jsonl_ok(jsonl, e["meta"], len(e["records"])):
            raise Failed("JSONL trace is malformed")

    def check_cli(self, code, out, err) -> None:
        raise NotImplementedError


class StaticLarge(ChainWorkload):
    def __init__(self, seed: int):
        self.small = gen.static_large(seed)
        # `tm check` runs on the N model: at 2N the check itself outweighs
        # start-up, and the bare-interpreter reference then scales it less
        # well (README, "Timing on a shared machine").
        small_path = WORK / f"model-{seed}-n.tm"
        WORK.mkdir(exist_ok=True)
        small_path.write_text(self.small.model)
        super().__init__(seed, gen.static_large(seed, 2 * gen.STATIC_N),
                         ["check", str(small_path)])

    def check_cli(self, code, out, err) -> None:
        lines = out.splitlines()
        warned = sum("OPPOSING_FLOWS" in line for line in lines)
        if code != 0 or lines[-1:] != ["ok (with warnings)"] or warned != len(
                self.small.expected["opposing"]):
            raise Failed(f"tm check: exit {code}, {out[-200:]!r} {err[-200:]!r}")

    def scaling_pair(self) -> tuple[gen.Chain, gen.Chain]:
        return self.small, self.c


class SimTokens(ChainWorkload):
    def __init__(self, seed: int):
        super().__init__(seed, gen.sim_tokens(seed), ["simulate", "{model}", "{scenario}"])

    def check_cli(self, code, out, err) -> None:
        recs, meta, rest = checks.simulate_text(out)
        m = self.c.expected["meta"]
        want = (f"steps={m['steps_used']} created={m['created']} "
                f"consumed={m['consumed']} limit_hit=no")
        if (code != 0 or sorted(recs) != [tuple(r) for r in self.c.expected["records"]]
                or meta != want or rest[-1:] != ["conformance: ok"]):
            raise Failed(f"tm simulate: exit {code}, {err[-200:]!r}")

    def scaling_pair(self) -> tuple[gen.Chain, gen.Chain]:
        return self.c, gen.sim_tokens(self.seed, 2 * gen.SIM_N)


class CorpusCli(Workload):
    """Corpus commands as `tm` subprocesses, then the same pipelines in-process."""

    def __init__(self, seed: int):
        super().__init__(seed)
        WORK.mkdir(exist_ok=True)
        self.cmds = [([a.format(work=WORK) for a in args], code)
                     for args, code in gen.corpus_commands(seed)]
        self.texts = {m: (ROOT / "corpus" / f"{m}.tm").read_text()
                      for m in gen.CORPUS_MODELS}
        self.scenarios = {s: (ROOT / "corpus" / f"{s}.tms").read_text()
                          for s in gen.CORPUS_SCENARIOS}
        for name in ("sugar_region", "guard_type"):
            (WORK / f"{name}.tm").write_text(getattr(gen, f"{name.upper()}_TM"))
            (WORK / f"{name}.tms").write_text(getattr(gen, f"{name.upper()}_TMS"))
        self.outputs: dict[str, tuple] = {}
        self.census_count: int | None = None

    def round(self, tr: Tracer) -> tuple[int, int]:
        for args, want in self.cmds:
            metric = {"check": "check_s", "behavior": "behavior_s", "export": "export_s",
                      "simulate": "simulate_s"}.get(args[0])
            if args[0] == "events" and "--bound" in args:
                metric = "census_s"
            code, out, err, seconds = self.tm(tr, args, metric)
            if code != want or "Traceback" in err:
                raise Failed(f"tm {' '.join(args)}: exit {code} (want {want}) {err[-300:]!r}")
            if args[0] == "simulate":
                fmt = "json" if "--format" in args else "text"
                if fmt == "json":
                    recs, meta = checks.simulate_jsonl(out)
                else:
                    recs, meta, rest = checks.simulate_text(out)
                    if rest[-1:] != ["conformance: ok"]:
                        raise Failed(f"tm {' '.join(args)}: no 'conformance: ok'")
                # Every run of a scenario, text or JSON, must give the same trace.
                if self.outputs.setdefault(tuple(args[1:3]), (recs, meta)) != (recs, meta):
                    raise Failed(f"tm {' '.join(args)} is not reproducible")
                self.samples["records_per_s"].append(len(recs) / seconds)
        failed = self.known_faults(tr)
        ops = self.in_process(tr)
        return len(self.cmds) + 2 + ops, failed

    def known_faults(self, tr: Tracer) -> int:
        """The two operations that fail today; outside the timed metrics."""
        failed = 0
        m, s = str(WORK / "sugar_region.tm"), str(WORK / "sugar_region.tms")
        check = run_tm(tr, ["check", m])
        behavior = run_tm(tr, ["behavior", m])
        sim = run_tm(tr, ["simulate", m, s])
        if not (check[0] == 0 and behavior[0] == 0
                and "edge send -> recv" in behavior[1]
                and sim[0] == 0 and "conformance: ok" in sim[1]):
            failed += 1
        code, _, err, _, _ = run_tm(tr, ["simulate", str(WORK / "guard_type.tm"),
                                         str(WORK / "guard_type.tms")])
        if not (code == 1 and "error[" in err and "Traceback" not in err):
            failed += 1
        return failed

    def in_process(self, tr: Tracer) -> int:
        """The corpus pipelines in-process, so the traced run sees each layer."""
        ops = 0
        for name, text in self.texts.items():
            doc, report = self.timed(tr, "inprocess", op_check, tr, text)
            if doc.regions:  # as `tm behavior`, which stops when there are none
                self.timed(tr, "inprocess", op_behavior, tr, text)
                ops += 1
            dot_text, _ = self.timed(tr, "inprocess", op_export, tr, text)
            if not report.ok:
                raise Failed(f"{name}: check reports errors")
            _, arcs = checks.stage_names(tmflow.desugar(tmflow.parse(text).model))
            if checks.dot_edges(dot_text) != Counter(arcs.values()):
                raise Failed(f"{name}: DOT export does not carry every arc")
            ops += 2
        text = self.texts["multiple_behaviors"]
        subs = self.timed(tr, "inprocess", op_census, tr, text, gen.CENSUS_BOUND)
        stages, arcs = checks.stage_names(tmflow.parse(text).model)
        if self.census_count is None:
            self.census_count = checks.count_subdiagrams(stages, arcs, gen.CENSUS_BOUND)
        if not checks.census_ok(subs, arcs, gen.CENSUS_BOUND, self.census_count):
            raise Failed("census of multiple_behaviors is wrong")
        for scen, model_name in gen.CORPUS_SCENARIOS.items():
            doc, trace, seg, verdict, _ = self.timed(
                tr, "inprocess", op_simulate, tr, self.texts[model_name], self.scenarios[scen])
            arc_region = {a: r.id for r in doc.regions for a in r.body.arcs}
            occ = checks.segment([(r.step, r.arc) for r in trace.records], arc_region)
            got = [(o.region, o.interval.start, o.interval.duration) for o in seg.occurrences]
            if got != occ or not verdict.ok:
                raise Failed(f"{scen}: segmentation or conformance is wrong")
            ops += 1
        return ops + 1

    def cli_commands(self) -> list[list[str]]:
        return [args for args, _ in self.cmds]

    def layer_inputs(self):
        """(model text, scenario text) pairs of the corpus."""
        return [(self.texts[m], self.scenarios[s]) for s, m in gen.CORPUS_SCENARIOS.items()]


WORKLOADS = {"static-large": StaticLarge, "sim-tokens": SimTokens, "corpus-cli": CorpusCli}


# ---------------------------------------------------------------------------
# Per-layer measurements outside the rounds


def median_time(fn, *args, repeat: int = MICRO_REPEAT) -> float:
    """Median wall seconds of ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return median(times)


def doubled(doc):
    """The document plus a copy of it with every machine, arc, region and
    event id suffixed by ``_b``: the same model at twice the size."""
    def ren(text):
        return f"{text}_b"

    def ref(r):
        return replace(r, machine=tuple(ren(p) for p in r.machine))

    def machine(m):
        return replace(m, id=ren(m.id), submachines=tuple(machine(s) for s in m.submachines))

    def arc(a):
        return replace(a, id=ren(a.id), source=ref(a.source), target=ref(a.target),
                       auto_id=False)

    model = doc.model
    twin = replace(model, machines=model.machines + tuple(machine(m) for m in model.machines),
                   flows=model.flows + tuple(arc(a) for a in model.flows),
                   triggers=model.triggers + tuple(arc(a) for a in model.triggers))
    regions = doc.regions + tuple(
        replace(r, id=ren(r.id), body=replace(
            r.body, stages=frozenset(ref(s) for s in r.body.stages),
            arcs=frozenset(ren(a) for a in r.body.arcs)))
        for r in doc.regions)
    return tmflow.Document(model=twin, regions=regions, behavior=None)


def scaling(docs_n, docs_2n) -> dict[str, float]:
    """log2 of t(2N) / t(N) for validate and infer_behavior, from the
    median ratio of back-to-back runs at N and 2N (adjacent runs see the
    same machine speed)."""
    out = {}
    for metric, fn in (("validate.scaling_exp", lambda d: tmflow.validate(d.model)),
                       ("behavior.infer_scaling_exp",
                        lambda d: tmflow.infer_behavior(d.model, d.regions))):
        # infer_behavior needs regions, as `tm behavior` does.
        ratios = [median_time(lambda: [fn(d) for d in docs_2n if d.regions], repeat=1)
                  / median_time(lambda: [fn(d) for d in docs_n if d.regions], repeat=1)
                  for _ in range(2 * MICRO_REPEAT)]
        out[metric] = math.log2(median(ratios))
    return out


def guard_costs(pairs) -> tuple[float, float]:
    """Mean microseconds of parse_guard over every guard text of the
    models, and of eval_guard over those guards and the scenario's seed
    tokens."""
    texts, seeds = [], []
    for model_text, scenario_text in pairs:
        model = tmflow.parse(model_text).model
        texts += [a.guard for a in model.arcs() if a.guard]
        scenario = tmflow.parse_scenario(scenario_text)
        seeds += [s.attrs for s in scenario.tokens] + [s.attrs for _, s in scenario.injections]
        seeds += [attrs for _, _, attrs in scenario.mints]
    parse_us = median_time(lambda: [parse_guard(t) for t in texts]) / len(texts) * 1e6
    guards = [parse_guard(t) for t in texts]
    cases = [(g, a) for g in guards for a in seeds[:40] if names(g) <= a.keys()]

    def evaluate():
        for g, a in cases:
            try:
                eval_guard(g, a)
            except GuardTypeError:
                pass

    return parse_us, median_time(evaluate) / len(cases) * 1e6


def normalize_cost(docs) -> float:
    """Mean microseconds of normalize_ref over every arc endpoint."""
    ends = []
    for d in docs:
        model = tmflow.desugar(d.model)
        ends += [(model, ref) for arc in model.arcs() for ref in (arc.source, arc.target)]
    return median_time(lambda: [tmflow.normalize_ref(m, r) for m, r in ends]) / len(ends) * 1e6


def import_cost() -> tuple[float, float]:
    """Seconds of a fresh interpreter importing tmflow.cli less those of a
    bare interpreter, and the bare interpreter's seconds."""
    bare, full = [], []
    for _ in range(MICRO_REPEAT):
        bare.append(spawn(["-c", "pass"])[3])
        full.append(spawn(["-c", "import tmflow.cli"])[3])
    return median(full) - median(bare), median(bare)


def main_cost(commands: list[list[str]]) -> float:
    """Median seconds of in-process cli.main over the commands."""
    times = []
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            cli.main(args)
            times.append(time.perf_counter() - start)
    return median(times)


def layer_metrics(w: Workload, tr: Tracer, traced_rounds: int) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def per_call(metric, span):
        m[metric] = (median(tr.durations(span)), "s")

    for metric, span in (("parser.parse_s", "parser.parse"),
                         ("parser.parse_scenario_s", "parser.parse_scenario"),
                         ("model.desugar_s", "model.desugar"),
                         ("validate.validate_s", "validate.validate"),
                         ("behavior.check_regions_s", "behavior.check_regions"),
                         ("behavior.infer_behavior_s", "behavior.infer_behavior"),
                         ("behavior.enumerate_subdiagrams_s", "behavior.enumerate_subdiagrams"),
                         ("simulate.simulate_s", "simulate.simulate"),
                         ("simulate.segment_s", "simulate.segment"),
                         ("simulate.conformance_s", "simulate.conformance"),
                         ("jsonio.trace_to_jsonl_s", "jsonio.trace_to_jsonl"),
                         ("jsonio.model_to_obj_s", "jsonio.model_to_obj"),
                         ("dot.model_to_dot_s", "dot.model_to_dot")):
        per_call(metric, span)
    parse_bytes = sum(s[4] for s in tr.spans if s[0] == "parser.parse")
    m["parser.parse_mb_per_s"] = (parse_bytes / 1e6 / sum(tr.durations("parser.parse")), "MB/s")

    if isinstance(w, ChainWorkload):
        pairs = [(w.c.model, w.c.scenario)]
        small, large = w.scaling_pair()
        docs_n, docs_2n = [tmflow.parse(small.model)], [tmflow.parse(large.model)]
        cli_cmds = [["check", str(w.model_path)], ["behavior", str(w.model_path)],
                    ["events", str(w.model_path), "--bound", str(gen.CENSUS_BOUND)],
                    ["export", str(w.model_path), "--format", "json",
                     "--out", str(WORK / "export.json")]]
        if isinstance(w, SimTokens):
            cli_cmds = [w.cli_args]
    else:
        pairs = w.layer_inputs()
        docs_n = [tmflow.parse(t) for t in w.texts.values()]
        docs_2n = [doubled(d) for d in docs_n]
        cli_cmds = w.cli_commands()
    docs = [tmflow.parse(t) for t, _ in pairs]
    vb = tr.durations("behavior.validate_behavior")
    if not vb:
        # No declared graph in the workload: validate the inferred one.
        vb = [median_time(lambda: [tmflow.validate_behavior(
            d.model, d.regions, tmflow.infer_behavior(d.model, d.regions)) for d in docs])]
    m["behavior.validate_behavior_s"] = (median(vb), "s")
    m["parser.serialize_s"] = (median_time(lambda: [tmflow.serialize(d) for d in docs]), "s")
    m["model.normalize_ref_us"] = (normalize_cost(docs), "us")
    m["validate.reachable_stages_s"] = (median_time(lambda: [
        tmflow.reachable_stages(d.model, [r for r in d.model.stage_instances()
                                          if r.kind == tmflow.StageKind.CREATE])
        for d in docs]), "s")
    for metric, value in scaling(docs_n, docs_2n).items():
        m[metric] = (value, "1")
    parse_us, eval_us = guard_costs(pairs)
    m["exprs.parse_guard_us"] = (parse_us, "us")
    m["exprs.eval_guard_us"] = (eval_us, "us")

    # Simulate time over (steps x tokens created), from the traced rounds.
    sims = [tmflow.simulate(tmflow.desugar(tmflow.parse(mt).model), tmflow.parse_scenario(st))
            for mt, st in pairs]
    work = sum(t.meta.steps_used * t.meta.created for t in sims)
    per_round = sum(tr.durations("simulate.simulate")) / traced_rounds
    m["simulate.us_per_token_step"] = (per_round / work * 1e6, "us")

    import_s, bare_s = import_cost()
    m["cli.import_s"] = (import_s, "s")
    m["cli.main_s"] = (main_cost(cli_cmds), "s")
    # The machine's speed during the run, against which end-to-end times
    # are scaled (reference: CALIBRATION_S and BARE_START_S).
    m["run.calibration_s"] = (median(calibration_loop() for _ in range(MICRO_REPEAT)), "s")
    m["run.bare_start_s"] = (bare_s, "s")
    self_times = tr.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_times.get(layer, 0.0) / traced_rounds, "s")
    return m


# ---------------------------------------------------------------------------
# Command line


def setup_probe(name: str, seed: int, bare: BareStart) -> float:
    """Seconds for a fresh interpreter to import tmflow and this benchmark
    and build the workload's inputs: the set-up before the first timed
    operation."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"run.WORKLOADS[{name!r}]({seed})")
    (rc, _, err, _, _), _, seconds = bare.timed(spawn, ["-c", code])
    if rc != 0:
        raise Failed(f"set-up probe failed: {err[-300:]}")
    return seconds


def git_sha() -> str:
    """The checked-out commit, read from .git without running git;
    "unknown" outside a git checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="tmflow benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)

    bare = BareStart()
    setups = [setup_probe(args.workload, args.seed, bare) for _ in range(SETUP_PROBES)]
    w = WORKLOADS[args.workload](args.seed)
    tr = Tracer()
    attempted = failed = 0
    correct = True
    round_totals: dict[bool, list[float]] = {True: [], False: []}
    start = time.perf_counter()
    try:
        while True:
            # The traced run alternates traced and untraced rounds; their
            # difference is the tracing overhead.
            tr.on = bool(args.trace) and len(round_totals[True]) <= len(round_totals[False])
            w.round_total = 0.0
            a, f = w.round(tr)
            round_totals[tr.on].append(w.round_total)
            attempted += a
            failed += f
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or round_totals[False]):
                break
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # a crash in tmflow is a wrong answer, not a benchmark fault
        traceback.print_exc()
        correct = False
    tr.on = False

    metrics: dict[str, tuple[float, str]] = {}
    if correct and not args.trace:
        # A time is the median over the run's operations, each scaled to
        # the reference speed by the calibration loops around it.
        s = w.samples
        metrics = {"setup_s": (median(setups), "s")}
        for name in ("check_s", "behavior_s", "census_s", "export_s", "simulate_s",
                     "cli_cmd_s"):
            metrics[name] = (median(s[name]), "s")
        metrics["records_per_s"] = (median(s["records_per_s"]), "1/s")
        metrics["peak_rss_mb"] = (w.peak_rss_mb(), "MB")
        print(json.dumps({"samples": {k: len(v) for k, v in sorted(s.items())},
                          "wall_medians": {k: median(v) for k, v in sorted(w.raw.items())}}))
    elif correct:
        traced = len(round_totals[True])
        metrics = layer_metrics(w, tr, traced)
        overhead = median(round_totals[True]) - median(round_totals[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100 * overhead / median(round_totals[False]), "%")
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tr.dump(spans_path)
        print(json.dumps({"python": sys.version.split()[0], "git_sha": git_sha(),
                          "nproc": os.cpu_count(), "spans": str(spans_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
