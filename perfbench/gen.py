"""Seeded inputs for the tmflow benchmark, with the answers each must give.

A *chain* model is a line of units u0 .. u(n-1).  A job token enters at
u0.Create, is processed once in every unit (the action at each Process
stage adds 1 to ``hop``), and leaves the last unit for ``archive``
(where it stays) or ``exit`` (where it leaves the system).  The guard on
each unit's inbound flow (``hop < i+1``) and on its outbound flow
(``hop > i``) is what keeps a token from looping inside a unit.  A
trigger ``u(src).Process -> side(j).Create when mark = src`` mints one
``sig`` token per job, which leaves two steps later at side(j).Transfer.

The expected answers (behavior graph, diagnostics, every trace record,
token counts, final attributes) follow from that construction and the
step rules in the tmflow README; nothing here runs tmflow.

Run ``python3 perfbench/gen.py --workload static-large --seed 1 --out DIR``
to write a workload's generated inputs and expected answers to DIR.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Guards that every job token the generator makes satisfies
# (w in 0..99, acc >= 0, hop >= 0, lane "east" or "west").
_TRUE_GUARDS = (
    "w >= 0", "w < 100", 'lane != "none"', "acc >= 0", "hop >= 0",
    "acc + w >= 0", "w - 100 < 0",
)
_HOLD = {"Process": 2}  # steps a token waits at a stage before it moves on

STATIC_N = 30            # units in the smaller static-large model; the larger has 2N
STATIC_SIDE_SHARE = 4    # one side machine per 4 units
STATIC_BACK_SHARE = 10   # one never-taken back flow per 10 units
STATIC_NEST = 0.3        # share of units nested in (or beside) the unit before
STATIC_GUARD_DENSITY = 0.5  # share of a unit's inner flows that carry a guard
CENSUS_BOUND = 3

SIM_N = 16               # units in the sim-tokens pipeline
SIM_TOKENS = 120         # job tokens injected
SIM_RATE = 2             # job tokens injected per step


@dataclass
class Chain:
    """Generated model and scenario text plus the answers they must give."""

    model: str
    scenario: str
    expected: dict


def chain(seed: int, n: int, *, nest: float, guard_density: float,
          side_share: int, back_share: int, tokens: int, rate: int,
          declare_behavior: bool) -> Chain:
    """Build a chain of ``n`` units.

    ``side_share`` 1 gives every unit but u0 a side machine; k > 1 gives
    n // k sides at seeded units.  ``back_share`` k adds n // k back flows
    (at least one; guarded ``hop < 0``, so never taken; each draws an
    OPPOSING_FLOWS warning).  ``rate`` 0 places the ``tokens`` job tokens
    at step 0; otherwise ``rate`` tokens are injected per step from step 1.
    """
    rng = random.Random(f"chain:{seed}:{n}")
    units = [f"u{i}" for i in range(n)]

    # Shares are exact counts, so every seed gives a model of the same size.
    nested = set(rng.sample(range(1, n), round(nest * (n - 1))))
    parent: list[int | None] = [None] * n
    depth = [0] * n
    for i in sorted(nested):
        if depth[i - 1] < 3:
            parent[i], depth[i] = i - 1, depth[i - 1] + 1
        else:
            parent[i], depth[i] = parent[i - 1], depth[i - 1]
    path: dict[str, tuple[str, ...]] = {}
    for i in range(n):
        above = path[units[parent[i]]] if parent[i] is not None else ()
        path[units[i]] = above + (units[i],)

    # No side hangs off u0, and a back flow u1 -> u0 always exists: with
    # many tokens, R_u0 recurs after other regions, and the edge R_u1 ->
    # R_u0 is what lets such a trace conform.
    if side_share == 1:
        side_src = list(range(1, n))
    else:
        side_src = sorted(rng.sample(range(1, n), max(1, n // side_share)))
    sides = [f"side{j}" for j in range(len(side_src))]
    back_at = [0] + sorted(rng.sample(range(1, n - 1), n // back_share - 1))
    for name in ["archive", "exit"] + sides:
        path[name] = (name,)

    def ref(machine: str, kind: str) -> str:
        return ".".join(path[machine] + (kind,))

    job_slot, sig_slot = object(), object()  # inner flows that may carry a guard

    # -- arcs: (kind, id, source machine, source kind, target machine, target kind, thing, guard)
    arcs: list[tuple] = []

    def flow(arc_id, sm, sk, tm, tk, thing, guard):
        arcs.append(("flow", arc_id, sm, sk, tm, tk, thing, guard))

    region_arcs: dict[str, list[str]] = {}
    flow("a0_c", "u0", "Create", "u0", "Process", "job", job_slot)
    flow("a0_p", "u0", "Process", "u0", "Release", "job", job_slot)
    flow("a0_r", "u0", "Release", "u0", "Transfer", "job", job_slot)
    region_arcs["u0"] = ["a0_c", "a0_p", "a0_r"]
    for i in range(n):
        u = units[i]
        if i > 0:
            flow(f"b{i}_in", u, "Transfer", u, "Receive", "job", f"hop < {i + 1}")
            flow(f"b{i}_rp", u, "Receive", u, "Process", "job", job_slot)
            flow(f"b{i}_pr", u, "Process", u, "Release", "job", job_slot)
            flow(f"b{i}_rt", u, "Release", u, "Transfer", "job", job_slot)
            region_arcs[u] = [f"b{i}_in", f"b{i}_rp", f"b{i}_pr", f"b{i}_rt"]
        if i < n - 1:
            flow(f"x{i}", u, "Transfer", units[i + 1], "Transfer", "job", f"hop > {i}")
    last = units[-1]
    flow("x_arch", last, "Transfer", "archive", "Transfer", "job", "keep = 1")
    flow("x_exit", last, "Transfer", "exit", "Transfer", "job", "keep = 0")
    flow("z1", "archive", "Transfer", "archive", "Receive", "job", job_slot)
    flow("z2", "archive", "Receive", "archive", "Process", "job", job_slot)
    region_arcs["archive"] = ["z1", "z2"]
    region_arcs["exit"] = []
    for k, i in enumerate(back_at):
        flow(f"y{k}", units[i + 1], "Transfer", units[i], "Transfer", "job", "hop < 0")
    for j, side in enumerate(sides):
        flow(f"s{j}_a", side, "Create", side, "Release", "sig", sig_slot)
        flow(f"s{j}_b", side, "Release", side, "Transfer", "sig", sig_slot)
        region_arcs[side] = [f"s{j}_a", f"s{j}_b"]
    for j, src in enumerate(side_src):
        arcs.append(("trigger", f"t{j}", units[src], "Process", sides[j], "Create",
                     None, f"mark = {src}"))

    # Each guard text is used equally often, so guard costs do not vary by seed.
    slots = [k for k, a in enumerate(arcs) if a[7] in (job_slot, sig_slot)]
    guarded = set(rng.sample(slots, round(guard_density * len(slots))))
    job_guarded = [k for k in slots if k in guarded and arcs[k][7] is job_slot]
    texts = [_TRUE_GUARDS[j % len(_TRUE_GUARDS)] for j in range(len(job_guarded))]
    rng.shuffle(texts)
    text_of = dict(zip(job_guarded, texts))
    for k in slots:
        guard = text_of.get(k, "n >= 0") if k in guarded else None
        arcs[k] = arcs[k][:7] + (guard,)

    stages = {u: ["Transfer", "Receive", "Process", "Release"] for u in units[1:]}
    stages["u0"] = ["Create", "Process", "Release", "Transfer"]
    stages["archive"] = ["Transfer", "Receive", "Process"]
    stages["exit"] = ["Transfer"]
    for side in sides:
        stages[side] = ["Create", "Release", "Transfer"]

    # -- model text
    children: dict[int | None, list[int]] = {}
    for i in range(n):
        children.setdefault(parent[i], []).append(i)
    out = ["# generated chain model", "",
           "thing job { hop: int, w: int, acc: int, keep: int, mark: int, lane: text }",
           "thing sig { n: int }", ""]

    def emit(i: int, pad: str):
        u = units[i]
        label = f' "unit {i}"' if i % 3 == 0 else ""
        out.append(f"{pad}machine {u}{label} {{")
        out.append(f"{pad}  stages {', '.join(stages[u])}")
        for c in children.get(i, []):
            emit(c, pad + "  ")
        out.append(f"{pad}}}")

    for i in children[None]:
        emit(i, "")
    for name in ["archive", "exit"] + sides:
        out.append(f"machine {name} {{ stages {', '.join(stages[name])} }}")
    out.append("")
    for kind, arc_id, sm, sk, tm, tk, thing, guard in arcs:
        # Endpoints are written by machine id alone (a unique suffix of the path).
        line = f"{kind} {arc_id}: {sm}.{sk} -> {tm}.{tk}"
        if thing:
            line += f" on {thing}"
        if guard:
            line += f" when {guard}"
        out.append(line)

    region_order = units + ["archive", "exit"] + sides
    region_id = {m: f"R_{m}" for m in region_order}
    out += ["", "regions {"]
    for m in region_order:
        refs = ", ".join(f"{m}.{k}" for k in stages[m])
        out.append(f"  region {region_id[m]} {{ stages {refs}")
        if region_arcs[m]:
            out.append(f"    arcs {', '.join(region_arcs[m])}")
        out.append("  }")
    out.append("}")

    # -- expected behavior graph: one edge per region pair joined by an arc
    machine_region = {m: region_id[m] for m in region_order}
    order = {region_id[m]: k for k, m in enumerate(region_order)}
    edge_set = set()
    for _, _, sm, _, tm, _, _, _ in arcs:
        if sm != tm:
            edge_set.add((machine_region[sm], machine_region[tm]))
    edges = sorted(edge_set, key=lambda e: (order[e[0]], order[e[1]]))
    graph = {"events": [region_id[m] for m in region_order],
             "edges": [list(e) for e in edges],
             "initial": [region_id["u0"]]}

    if declare_behavior:
        no_interval = {units[i] for i in back_at} | {units[i + 1] for i in back_at}
        start = {u: i for i, u in enumerate(units)}
        start.update(archive=n, exit=n)
        start.update({side: src + 1 for side, src in zip(sides, side_src)})
        out += ["", "behavior {"]
        for m in region_order:
            line = f"  event e_{m} region {region_id[m]}"
            if m not in no_interval:
                line += f" interval {start[m]} 1"
            out.append(line)
        out.append("  initial e_u0")
        for a, b in edges:
            out.append(f"  edge e_{a[2:]} -> e_{b[2:]}")
        out.append("}")
    model_text = "\n".join(out) + "\n"

    opposing = sorted(
        "|".join(sorted((".".join(path[units[i]]), ".".join(path[units[i + 1]]))))
        for i in back_at
    )

    # -- scenario and the trace it must produce
    incr = [rng.randint(1, 9) for _ in range(n)]
    keep_ids = set(rng.sample(range(tokens), tokens // 4))
    flows_by_id = {a[1]: a for a in arcs}
    main_path = ["a0_c", "a0_p", "a0_r"]
    for i in range(n):
        if i > 0:
            main_path += [f"b{i}_in", f"b{i}_rp", f"b{i}_pr", f"b{i}_rt"]
        if i < n - 1:
            main_path.append(f"x{i}")

    scen = ["scenario chain {"]
    jobs = []
    for k in range(tokens):
        attrs = {"hop": 0, "w": rng.randint(0, 99), "acc": rng.randint(0, 50),
                 "keep": 1 if k in keep_ids else 0,
                 "mark": rng.choice(side_src), "lane": rng.choice(("east", "west"))}
        start_step = 0 if rate == 0 else 1 + k // rate
        jobs.append((f"j{k}", start_step, attrs))
        body = ", ".join(
            f"{key} = {val}" if isinstance(val, int) else f'{key} = "{val}"'
            for key, val in attrs.items()
        )
        head = "token" if rate == 0 else f"inject {start_step} token"
        scen.append(f"  {head} j{k} of job at u0.Create {{ {body} }}")
    for j, side in enumerate(sides):
        scen.append(f"  mint {side}.Create of sig {{ n = {j} }}")
    for i, u in enumerate(units):
        scen.append(f"  action {u}.Process {{ hop := hop + 1; acc := acc + {incr[i]} }}")

    records: list[tuple] = []  # (step, arc, token, source, target)
    mints = []                 # (step, creation order of the parent, side index)
    final: dict[str, dict] = {}
    exits = 0
    for order_k, (tok, step, attrs) in enumerate(jobs):
        arrived, at = step, ("u0", "Create")
        tail = ["x_arch", "z1", "z2"] if attrs["keep"] else ["x_exit"]
        for arc_id in main_path + tail:
            _, _, sm, sk, tm, tk, _, _ = flows_by_id[arc_id]
            step = arrived + _HOLD.get(sk, 1)
            records.append((step, arc_id, tok, ref(sm, sk), ref(tm, tk)))
            arrived, at = step, (tm, tk)
            if tk == "Process" and tm == units[attrs["mark"]]:
                mints.append((arrived + 1, order_k, side_src.index(attrs["mark"])))
        if attrs["keep"]:
            done = dict(attrs, hop=n, acc=attrs["acc"] + sum(incr))
            final[tok] = {"attrs": done, "at": ref(*at), "arrived": arrived}
        else:
            exits += 1
    for serial, (step, _, j) in enumerate(sorted(mints), start=1):
        tok, side = f"sig_{serial}", sides[j]
        records.append((step, f"t{j}", tok, ref(units[side_src[j]], "Process"),
                        ref(side, "Create")))
        records.append((step + 1, f"s{j}_a", tok, ref(side, "Create"), ref(side, "Release")))
        records.append((step + 2, f"s{j}_b", tok, ref(side, "Release"), ref(side, "Transfer")))
    steps_used = max(r[0] for r in records) + 2
    scen.insert(1, f"  max_steps {steps_used + 10}")
    scen.append("}")

    arc_region = {a: region_id[m] for m, ids in region_arcs.items() for a in ids}
    expected = {
        "graph": graph,
        "opposing": opposing,
        "arcs": [[a[1], a[0], ref(a[2], a[3]), ref(a[4], a[5])] for a in arcs],
        "stages": [ref(m, k) for m in region_order for k in stages[m]],
        "arc_region": arc_region,
        "records": sorted(records),
        "meta": {"steps_used": steps_used, "step_limit_hit": False,
                 "created": tokens + len(mints), "consumed": exits + len(mints)},
        "final": final,
        "census_bound": CENSUS_BOUND,
    }
    return Chain(model_text, "\n".join(scen) + "\n", expected)


def static_large(seed: int, n: int = STATIC_N) -> Chain:
    """The static-large model at ``n`` units, with one job token."""
    return chain(seed, n, nest=STATIC_NEST, guard_density=STATIC_GUARD_DENSITY,
                 side_share=STATIC_SIDE_SHARE, back_share=STATIC_BACK_SHARE,
                 tokens=1, rate=0, declare_behavior=True)


def sim_tokens(seed: int, n: int = SIM_N) -> Chain:
    """The sim-tokens pipeline: a guard on every flow, many injected tokens."""
    return chain(seed, n, nest=0.0, guard_density=1.0, side_share=1,
                 back_share=n, tokens=SIM_TOKENS, rate=SIM_RATE,
                 declare_behavior=False)


# Each corpus command with the exit code it must give.  The quick tour
# comes from the tmflow README; then `tm check` on every model and
# `tm simulate` on every scenario (text, then JSON lines).
QUICK_TOUR = [
    (["check", "corpus/one_lane_street.tm"], 0),
    (["events", "corpus/mousetrap.tm"], 0),
    (["events", "corpus/multiple_behaviors.tm", "--bound", "3"], 0),
    (["behavior", "corpus/stack.tm"], 0),
    (["behavior", "corpus/paint_dry.tm", "--mode", "strict"], 1),  # INTERVAL_ORDER
    (["simulate", "corpus/mousetrap.tm", "corpus/mousetrap.tms"], 0),
    (["export", "corpus/stack.tm", "--format", "dot", "--out", "{work}/stack.dot"], 0),
]
CORPUS_MODELS = ["formula", "mousetrap", "multiple_behaviors", "one_lane_street",
                 "paint_control", "paint_dry", "stack", "sugar_pipeline"]
CORPUS_SCENARIOS = {"formula": "formula", "mousetrap": "mousetrap",
                    "multiple_behaviors": "multiple_behaviors",
                    "paint_control": "paint_control", "paint_dry": "paint_dry",
                    "stack_pop": "stack", "stack_pop_empty": "stack",
                    "stack_push": "stack"}

# Two inputs that fail today because of faults in tmflow.  Their text does
# not depend on the seed.  The answers are what a correct tmflow gives.
#
# SUGAR_REGION: regions cover stages and arcs that `desugar` creates for
# `route: sender => receiver`.  `tm check` and `tm behavior` should accept
# the model (graph: send -> recv) and `tm simulate` should print
# "conformance: ok"; today regions are checked before desugaring.
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
# GUARD_TYPE: an ordering guard between an int attribute and text.  A
# correct `tm simulate` reports it as a diagnostic and exits 1; today it
# exits with a GuardTypeError traceback.
GUARD_TYPE_TM = """\
thing job { n: int }
machine a { stages Create, Process }
flow f1: a.Create -> a.Process on job when n >= "x"
"""
GUARD_TYPE_TMS = """\
scenario guard_type {
  max_steps 10
  token j of job at a.Create { n = 1 }
}
"""


def corpus_commands(seed: int) -> list[tuple[list[str], int]]:
    """One round of corpus `tm` commands, in a seeded order.  The quick
    tour runs three times, so that the commands it alone holds (census,
    export, behavior) get enough samples in a run."""
    cmds = QUICK_TOUR * 3
    cmds += [(["check", f"corpus/{m}.tm"], 0) for m in CORPUS_MODELS]
    for scen, model in CORPUS_SCENARIOS.items():
        base = ["simulate", f"corpus/{model}.tm", f"corpus/{scen}.tms"]
        cmds.append((base, 0))
        cmds.append((base + ["--format", "json"], 0))
    random.Random(f"corpus:{seed}").shuffle(cmds)
    return cmds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["static-large", "sim-tokens"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "static-large":
        made = {"n": static_large(args.seed), "2n": static_large(args.seed, 2 * STATIC_N)}
    else:
        made = {"pipeline": sim_tokens(args.seed)}
    for name, c in made.items():
        (out / f"{name}.tm").write_text(c.model)
        (out / f"{name}.tms").write_text(c.scenario)
        (out / f"{name}.expected.json").write_text(json.dumps(c.expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
