"""Command-line front end.

Subcommands::

    tm check MODEL        parse + static checks (+ region/behavior checks)
    tm events MODEL       region summary; --bound N enumerates subdiagrams
    tm behavior MODEL     inferred or validated behavior graph
    tm simulate MODEL SCENARIO   run a scenario, print the trace
    tm export MODEL       DOT or JSON rendering of the model

Exit codes: 0 success (warnings allowed), 1 semantic failure, 2 syntax
failure.  A ``MODEL.tmb`` sidecar next to ``MODEL.tm`` is merged
automatically.  Set ``TM_COLOR=never`` to disable ANSI colors.

The output formats load on demand: ``jsonio`` (and ``json``) only for
``--format json``, and ``dot`` only for DOT output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .behavior import (
    BoundTooLarge,
    RegionCheckFailed,
    check_regions,
    enumerate_subdiagrams,
    infer_behavior,
    validate_behavior,
)
from .diagnostics import ValidationReport, error
from .exprs import ExprSyntaxError, GuardTypeError
from .model import ModelError, StageRef, link
from .parser import (
    Document,
    TMParseError,
    behavior_lines,
    merge_documents,
    parse_scenario,
    parse_with_diagnostics,
)
from .simulate import Scenario, UnseededCreateError, conformance, segment, simulate
from .validate import unresolved_diagnostic, validate

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_SYNTAX = 2


def _use_color(stream) -> bool:
    mode = os.environ.get("TM_COLOR", "auto")
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _report_lines(report: ValidationReport, color: bool) -> list[str]:
    """The report's lines, tinted by severity when ``color`` is set."""
    if not color:
        return [str(diag) for diag in report.diagnostics]
    return [("\x1b[31m" if diag.severity == "error" else "\x1b[33m") + f"{diag}\x1b[0m"
            for diag in report.diagnostics]


def _print_report(report: ValidationReport, stream) -> None:
    for line in _report_lines(report, _use_color(stream)):
        print(line, file=stream)


class _CannotWrite(Exception):
    """An ``--out`` file that cannot be written."""


def _write_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CannotWrite(f"cannot write '{out}': {exc}") from exc


def _load_document(path_text: str) -> tuple[Document | None, ValidationReport]:
    """Parse a model file plus its optional .tmb sidecar; no document when
    it cannot be read or has a syntax error."""
    path = Path(path_text)
    sidecar = path.with_suffix(".tmb")
    sources = [path, sidecar] if path.suffix == ".tm" and sidecar.exists() else [path]
    doc, report = None, ValidationReport()
    for source in sources:
        try:
            text = source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.diagnostics.append(error("SYNTAX", f"cannot read '{source}': {exc}"))
            return None, report
        part, diagnostics = parse_with_diagnostics(text)
        report.diagnostics.extend(diagnostics)
        if doc is not None:  # a sidecar: merge_documents keeps its regions and behavior only
            model = part.model
            for item in sorted((*model.things, *model.machines, *model.flows, *model.triggers),
                               key=lambda item: (item.span.line, item.span.column)):
                report.diagnostics.append(error(
                    "SYNTAX", f"'{source}': a .tmb sidecar holds only regions and behavior",
                    item.span))
        if not report.ok:
            return None, report
        doc = part if doc is None else merge_documents(doc, part)
    return doc, report


def _full_check(doc: Document, mode: str) -> ValidationReport:
    report = validate(doc.model)
    if doc.regions:
        report.extend(check_regions(doc.model, doc.regions))
        if report.ok and doc.behavior is not None:
            report.extend(
                validate_behavior(doc.model, doc.regions, doc.behavior, mode=mode)
            )
    elif doc.behavior is not None:
        report.diagnostics.append(
            error("NO_REGIONS", "behavior section present but no regions declared")
        )
    return report


def _cmd_check(args, doc: Document | None, report: ValidationReport) -> int:
    code = EXIT_SYNTAX
    if doc is not None:
        report.extend(_full_check(doc, args.mode))
        code = EXIT_OK if report.ok else EXIT_SEMANTIC
    if args.format == "json":
        from . import jsonio
        _write_output(jsonio.dumps(jsonio.report_to_obj(report)), args.out)
    elif code:
        _print_report(report, sys.stderr)
    else:
        lines = _report_lines(report, not args.out and _use_color(sys.stdout))
        lines.append("ok (with warnings)" if report.diagnostics else "ok")
        _write_output("\n".join(lines) + "\n", args.out)
    return code


def _cmd_events(args, doc: Document, report: ValidationReport) -> int:
    if args.bound is not None:
        if args.bound < 0:
            print("error[SYNTAX]: --bound must be >= 0", file=sys.stderr)
            return EXIT_SYNTAX
        try:
            subs = enumerate_subdiagrams(doc.model, args.bound)
        except BoundTooLarge as exc:
            print(f"error[BOUND]: {exc}", file=sys.stderr)
            return EXIT_SEMANTIC
        if args.format == "json":
            from . import jsonio
            _write_output(jsonio.dumps(jsonio.census_to_obj(subs, args.bound)), args.out)
            return EXIT_OK
        lines = [f"{len(subs)} subdiagrams with at most {args.bound} elements"]
        for sub in subs:
            stages = ", ".join(
                str(ref) for ref in sorted(sub.stages, key=StageRef.sort_key)
            )
            arcs = ", ".join(sorted(sub.arcs)) or "-"
            lines.append(f"  stages [{stages}] arcs [{arcs}]")
        _write_output("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    region_report = check_regions(doc.model, doc.regions)
    report.extend(region_report)
    if args.format == "json":
        from . import jsonio
        payload = jsonio.regions_to_obj(doc.regions)
        payload["report"] = jsonio.report_to_obj(report)
        _write_output(jsonio.dumps(payload), args.out)
    else:
        if report.ok:
            lines = _report_lines(report, not args.out and _use_color(sys.stdout))
        else:
            _print_report(report, sys.stderr)
            lines = []
        lines += [f"region {region.id}: "
                  f"{len(region.body.stages)} stages, {len(region.body.arcs)} arcs"
                  for region in doc.regions] or ["no regions declared"]
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _cmd_behavior(args, doc: Document, report: ValidationReport) -> int:
    if not doc.regions:
        print("error[NO_REGIONS]: model declares no regions", file=sys.stderr)
        return EXIT_SEMANTIC

    try:
        if doc.behavior is not None:
            graph = doc.behavior
            report.extend(
                validate_behavior(doc.model, doc.regions, graph, mode=args.mode)
            )
        else:
            graph = infer_behavior(doc.model, doc.regions)
    except RegionCheckFailed as exc:
        _print_report(exc.report, sys.stderr)
        return EXIT_SEMANTIC

    _print_report(report, sys.stderr)
    if args.format == "dot":
        from . import dot
        _write_output(dot.behavior_to_dot(graph), args.out)
    elif args.format == "json":
        from . import jsonio
        _write_output(jsonio.dumps(jsonio.graph_to_obj(graph)), args.out)
    else:
        _write_output("\n".join(behavior_lines(graph)) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _cmd_simulate(args, doc: Document, report: ValidationReport) -> int:
    try:
        scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error[SYNTAX]: cannot read '{args.scenario}': {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except TMParseError as exc:
        _print_report(ValidationReport(exc.diagnostics), sys.stderr)
        return EXIT_SYNTAX

    if args.max_steps is not None and args.max_steps < 1:
        print("error[SYNTAX]: --max-steps must be >= 1", file=sys.stderr)
        return EXIT_SYNTAX
    fields = {name: getattr(scenario, name) for name in Scenario._fields}
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.max_steps is not None:
        fields["max_steps"] = args.max_steps
    scenario = Scenario(**fields)

    try:
        trace = simulate(doc.model, scenario)
    except (ModelError, UnseededCreateError, GuardTypeError, ExprSyntaxError) as exc:
        print(f"error[SIMULATION]: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    if args.format == "json":
        from . import jsonio
        _write_output(jsonio.trace_to_jsonl(trace), args.out)
        return EXIT_OK

    # Each arc's text around the token id is built once and found by the
    # arc's id while the record's stages are that arc's own objects, as in
    # ``jsonio.trace_to_jsonl``: rendering two stages (``StageRef.__str__``
    # runs in Python) costs more than the rest of the line, and two identity
    # checks less than a key of the id and both stages.
    arcs: dict[str, tuple[StageRef, StageRef, str, str]] = {}
    lines = []
    for r in trace.records:
        arc = arcs.get(r.arc)
        if arc is None or arc[0] is not r.source or arc[1] is not r.target:
            arc = arcs[r.arc] = (r.source, r.target, f": {r.arc} [",
                                 f"] {r.source} -> {r.target}")
        lines.append(f"step {r.step}{arc[2]}{r.token}{arc[3]}")
    lines.append(
        f"steps={trace.meta.steps_used} created={trace.meta.created} "
        f"consumed={trace.meta.consumed} "
        f"limit_hit={'yes' if trace.meta.step_limit_hit else 'no'}"
    )
    if doc.regions:
        seg = segment(trace, doc.regions)
        lines.append(
            "occurrences: "
            + " ".join(
                f"{o.region}@{o.interval.start}+{o.interval.duration}"
                for o in seg.occurrences
            )
        )
        graph = doc.behavior
        if graph is None:
            try:
                graph = infer_behavior(doc.model, doc.regions)
            except RegionCheckFailed:
                graph = None
        if graph is not None:
            verdict = conformance(seg.occurrences, graph)
            if verdict.ok:
                lines.append("conformance: ok")
            else:
                lines.append("conformance: " + "; ".join(str(d) for d in verdict.errors))
                _write_output("\n".join(lines) + "\n", args.out)
                _print_report(verdict, sys.stderr)
                return EXIT_SEMANTIC
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_export(args, doc: Document, report: ValidationReport) -> int:
    if args.format == "json":
        from . import jsonio
        _write_output(jsonio.dumps(jsonio.model_to_obj(doc.model)), args.out)
    else:
        from . import dot
        _write_output(dot.model_to_dot(doc.model, name=Path(args.model).stem), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm", description="Flow-machine model toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("model", help="model file (.tm)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("check", help="parse and statically validate a model")
    common(p)
    p.add_argument("--mode", choices=("overlap", "strict"), default="overlap")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("events", help="summarize regions or enumerate subdiagrams")
    common(p)
    p.add_argument("--bound", type=int,
                   help="enumerate subdiagrams up to this element count")
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("behavior", help="infer or validate the behavior graph")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("--mode", choices=("overlap", "strict"), default="overlap")
    p.set_defaults(func=_cmd_behavior)

    p = sub.add_parser("simulate", help="run a scenario and print the trace")
    common(p)
    p.add_argument("scenario", help="scenario file (.tms)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--max-steps", type=int, dest="max_steps",
                   help="override the scenario step limit")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="render the model as DOT or JSON")
    common(p, formats=("dot", "json"))
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, report = _load_document(args.model)
        # A model that does not load is reported once, here; only `check`
        # gets it, to report in its own --format.
        if doc is None and args.func is not _cmd_check:
            _print_report(report, sys.stderr)
            return EXIT_SYNTAX
        return args.func(args, doc, report)
    except ModelError:  # an arc that does not resolve: the line `tm check` prints
        arc, exc = link(doc.model).unresolved[0]
        print(unresolved_diagnostic(arc, exc), file=sys.stderr)
        return EXIT_SEMANTIC
    except _CannotWrite as exc:
        print(f"error[SYNTAX]: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
