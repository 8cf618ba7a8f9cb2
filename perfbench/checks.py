"""Output checks made apart from tmflow.

Each function recomputes an answer from plain data (stage names as
dotted strings, arc endpoints, trace records) with its own algorithm,
so a check never trusts the layer it checks.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict


def records(trace) -> list[tuple]:
    """Trace records as sorted (step, arc, token, source, target) tuples."""
    return sorted((r.step, r.arc, r.token, str(r.source), str(r.target))
                  for r in trace.records)


def segment(recs, arc_region: dict[str, str]) -> list[tuple[str, int, int]]:
    """Occurrences (region, start, duration): maximal runs of records, in
    trace order, whose arcs lie in one region; other records are skipped."""
    occ: list[list] = []
    for step, arc in recs:
        region = arc_region.get(arc)
        if region is None:
            continue
        if occ and occ[-1][0] == region:
            occ[-1][2] = step - occ[-1][1] + 1
        else:
            occ.append([region, step, 1])
    return [tuple(o) for o in occ]


def conforms(regions_seen: list[str], edges, initial) -> bool:
    """The first occurrence is initial; each later one has an edge from an
    occurrence before it."""
    edges = {tuple(e) for e in edges}
    seen: set[str] = set()
    for k, region in enumerate(regions_seen):
        if k == 0 and region not in initial:
            return False
        if k > 0 and not any((s, region) in edges for s in seen):
            return False
        seen.add(region)
    return True


def _machine(stage: str) -> str:
    return stage.rsplit(".", 1)[0]


def _connected(stages, arc_ends) -> bool:
    """Weak connectivity: stages touch through an arc or a shared machine."""
    stages = list(stages)
    if not stages:
        return False
    adj = defaultdict(set)
    by_machine = defaultdict(list)
    for s in stages:
        by_machine[_machine(s)].append(s)
    for group in by_machine.values():
        for s in group[1:]:
            adj[group[0]].add(s)
            adj[s].add(group[0])
    for a, b in arc_ends:
        adj[a].add(b)
        adj[b].add(a)
    seen = {stages[0]}
    todo = [stages[0]]
    while todo:
        for nxt in adj[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen >= set(stages)


def count_subdiagrams(stages: list[str], arcs: dict[str, tuple[str, str]],
                      bound: int) -> int:
    """Number of weakly connected (stages, arcs) sets with at most
    ``bound`` elements, where every arc's endpoints are among the stages.

    Stage sets connected in the full adjacency are enumerated once each
    (ESU, Wernicke 2006); for each, the subsets of its inner arcs that
    keep it connected are counted.
    """
    index = {s: i for i, s in enumerate(stages)}
    adj = {s: set() for s in stages}
    by_machine = defaultdict(list)
    for s in stages:
        by_machine[_machine(s)].append(s)
    for group in by_machine.values():
        for s in group:
            adj[s].update(g for g in group if g != s)
    arcs_at = defaultdict(list)
    for arc_id, (a, b) in arcs.items():
        adj[a].add(b)
        adj[b].add(a)
        arcs_at[a].append(arc_id)
        arcs_at[b].append(arc_id)
    adj = {s: n - {s} for s, n in adj.items()}

    def with_arcs(sub: frozenset) -> int:
        inner = sorted({a for s in sub for a in arcs_at[s]
                        if arcs[a][0] in sub and arcs[a][1] in sub})
        room = bound - len(sub)
        total = 0

        def pick(start: int, chosen: list[str]):
            nonlocal total
            if _connected(sub, [arcs[a] for a in chosen]):
                total += 1
            if len(chosen) == room:
                return
            for k in range(start, len(inner)):
                chosen.append(inner[k])
                pick(k + 1, chosen)
                chosen.pop()

        pick(0, [])
        return total

    count = 0

    def extend(sub: frozenset, ext: set, root: str):
        nonlocal count
        count += with_arcs(sub)
        if len(sub) == bound:
            return
        closed = set(sub).union(*(adj[s] for s in sub))
        ext = set(ext)
        while ext:
            w = min(ext, key=index.__getitem__)
            ext.discard(w)
            grow = {u for u in adj[w] if index[u] > index[root] and u not in closed}
            extend(sub | {w}, ext | grow, root)

    for v in stages:
        extend(frozenset([v]), {u for u in adj[v] if index[u] > index[v]}, v)
    return count


def census_ok(subs, arcs: dict[str, tuple[str, str]], bound: int, count: int) -> bool:
    """Each subdiagram is within the bound, closed over its arcs' endpoints
    and weakly connected; all are distinct; there are ``count`` of them."""
    keys = set()
    for sub in subs:
        stages = {str(s) for s in sub.stages}
        ends = [arcs[a] for a in sub.arcs]
        if len(stages) + len(ends) > bound:
            return False
        if any(a not in stages or b not in stages for a, b in ends):
            return False
        if not _connected(stages, ends):
            return False
        keys.add((frozenset(stages), frozenset(sub.arcs)))
    return len(keys) == len(subs) == count


_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)"', re.M)


def dot_edges(text: str) -> Counter:
    return Counter(_DOT_EDGE.findall(text))


def jsonl_ok(text: str, meta: dict, n_records: int) -> bool:
    """Every line parses; the header carries ``meta``; one line per record."""
    lines = text.splitlines()
    rows = [json.loads(line) for line in lines]
    return (len(rows) == n_records + 1 and rows[0].get("meta") == meta
            and all("arc" in r and "step" in r for r in rows[1:]))


def simulate_text(text: str) -> tuple[list[tuple], str, list[str]]:
    """Parse `tm simulate` text output: records, the meta line, other lines."""
    recs, meta, rest = [], "", []
    pattern = re.compile(r"^step (\d+): (\S+) \[(\S+)\] (\S+) -> (\S+)$")
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            recs.append((int(m[1]), m[2], m[3], m[4], m[5]))
        elif line.startswith("steps="):
            meta = line
        else:
            rest.append(line)
    return recs, meta, rest


def simulate_jsonl(text: str) -> tuple[list[tuple], str]:
    """The same view of `tm simulate --format json` output."""
    rows = [json.loads(line) for line in text.splitlines()]

    def ref(d):
        return ".".join(d["machine"]) + (f".{d['kind']}" if d["kind"] else "")

    m = rows[0]["meta"]
    meta = (f"steps={m['steps_used']} created={m['created']} "
            f"consumed={m['consumed']} limit_hit={'yes' if m['step_limit_hit'] else 'no'}")
    recs = [(r["step"], r["arc"], r["token"], ref(r["source"]), ref(r["target"]))
            for r in rows[1:]]
    return recs, meta


def stage_names(model) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """Every declared stage as a full dotted name, in tree order, and each
    arc's endpoints resolved by machine id (ids are unique model-wide)."""
    paths: dict[str, str] = {}
    stages: list[str] = []

    def walk(machine, prefix: str):
        path = f"{prefix}{machine.id}"
        paths[machine.id] = path
        stages.extend(f"{path}.{kind.value}" for kind in machine.stages)
        for sub in machine.submachines:
            walk(sub, path + ".")

    for machine in model.machines:
        walk(machine, "")
    arcs = {a.id: (f"{paths[a.source.machine[-1]]}.{a.source.kind.value}",
                   f"{paths[a.target.machine[-1]]}.{a.target.kind.value}")
            for a in model.arcs()}
    return stages, arcs
