"""Command-line front end.

Subcommands::

    tm check MODEL        parse + static checks (+ region/behavior checks)
    tm events MODEL       region summary; --bound N enumerates subdiagrams
    tm behavior MODEL     inferred or validated behavior graph
    tm simulate MODEL SCENARIO   run a scenario, print the trace
    tm export MODEL       DOT or JSON rendering of the model

The command line is read from one table, ``_COMMANDS``: each command's
positionals, its options and the function that runs it.  An option goes
before, between or after the positionals, as ``--opt value`` or
``--opt=value``; given twice, its last value wins.  ``tm -h`` and
``tm CMD -h`` print the usage built from the table and exit 0; every
other fault of the command line (no or an unknown command, an unknown
option, a missing or invalid value, an ``--out`` that is ``-`` or empty,
too few or too many positionals) is one ``error[SYNTAX]`` line, exit 2,
read before any file.

``tm`` (the console script and ``python -m tmflow.cli``) is ``run``: it
ends without interpreter teardown once its output is flushed and the
``atexit`` handlers have run.  A caller that embeds tmflow calls
``main(argv)``, which returns the exit code and never ends the process.

Exit codes: 0 success (warnings allowed), 1 semantic failure, 2 syntax
failure.  Every fault is a diagnostic line on stderr, tinted on a terminal
unless ``TM_COLOR=never``.  Every command but ``export`` starts from
``check``'s verdict, reached once in ``main``: on a model it rejects they
print what it prints and exit 1, and each command only renders.
``export`` renders any model whose arcs resolve.  ``simulate`` reads its
seed and step limit from the scenario, warns of an injection after the
step limit, and exits 1 on a nonconformant trace in either format.  A ``MODEL.tmb`` sidecar next to
``MODEL.tm`` is merged automatically.

The output formats load on demand: ``jsonio`` (and ``json``) only for
``--format json``, and ``dot`` only for DOT output.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from .behavior import (
    BoundTooLarge,
    check_regions,
    enumerate_subdiagrams,
    infer_behavior,
    validate_behavior,
)
from .diagnostics import Diagnostic, ValidationReport, error, warning
from .exprs import GuardTypeError
from .model import ModelError, StageRef, link
from .parser import (
    Document,
    TMParseError,
    behavior_lines,
    merge_documents,
    parse_scenario,
    parse_with_diagnostics,
)
from .simulate import UnseededCreateError, conformance, segment, simulate
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


def _stop(code: int, *diagnostics: Diagnostic) -> int:
    """Print ``diagnostics`` to stderr and return the exit ``code``."""
    _print_report(ValidationReport(list(diagnostics)), sys.stderr)
    return code


class _Unusable(Exception):
    """A command line that ``_COMMANDS`` does not accept, or an ``--out``
    file that cannot be written: one ``error[SYNTAX]`` line, exit 2."""


def _write_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Unusable(f"cannot write '{out}': {exc}") from exc


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
    code = EXIT_SYNTAX if doc is None else EXIT_OK if report.ok else EXIT_SEMANTIC
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
        try:
            subs = enumerate_subdiagrams(doc.model, args.bound)
        except BoundTooLarge as exc:
            return _stop(EXIT_SEMANTIC, error("BOUND", str(exc)))
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

    if args.format == "json":
        from . import jsonio
        payload = jsonio.regions_to_obj(doc.regions)
        payload["report"] = jsonio.report_to_obj(report)
        _write_output(jsonio.dumps(payload), args.out)
    else:
        lines = _report_lines(report, not args.out and _use_color(sys.stdout))
        lines += [f"region {region.id}: "
                  f"{len(region.body.stages)} stages, {len(region.body.arcs)} arcs"
                  for region in doc.regions] or ["no regions declared"]
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_behavior(args, doc: Document, report: ValidationReport) -> int:
    if not doc.regions:
        return _stop(EXIT_SEMANTIC, *report.diagnostics,
                     error("NO_REGIONS", "model declares no regions"))
    _print_report(report, sys.stderr)
    graph = doc.behavior or infer_behavior(doc.model, doc.regions)
    if args.format == "dot":
        from . import dot
        _write_output(dot.behavior_to_dot(graph), args.out)
    elif args.format == "json":
        from . import jsonio
        _write_output(jsonio.dumps(jsonio.graph_to_obj(graph)), args.out)
    else:
        _write_output("\n".join(behavior_lines(graph)) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args, doc: Document, report: ValidationReport) -> int:
    try:
        scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        return _stop(EXIT_SYNTAX, error("SYNTAX", f"cannot read '{args.scenario}': {exc}"))
    except TMParseError as exc:
        return _stop(EXIT_SYNTAX, *exc.diagnostics)
    _print_report(ValidationReport([
        warning("LATE_INJECTION", f"token '{seed.id}' is injected at step {step}, "
                f"after max_steps {scenario.max_steps}, and never enters")
        for step, seed in scenario.injections if step > scenario.max_steps]), sys.stderr)
    try:
        trace = simulate(doc.model, scenario)
    except (ModelError, UnseededCreateError, GuardTypeError) as exc:
        return _stop(EXIT_SEMANTIC, error("SIMULATION", str(exc)))

    # The verdict is reached once, whatever the format renders, against
    # the declared graph, else the inferred one.
    seg = verdict = None
    if doc.regions:
        seg = segment(trace, doc.regions)
        verdict = conformance(seg.occurrences,
                              doc.behavior or infer_behavior(doc.model, doc.regions))

    if args.format == "json":
        from . import jsonio
        _write_output(jsonio.trace_to_jsonl(trace), args.out)
    else:
        _write_output("\n".join(_trace_lines(trace, seg, verdict)) + "\n", args.out)
    if verdict is None or verdict.ok:
        return EXIT_OK
    return _stop(EXIT_SEMANTIC, *verdict.diagnostics)


def _trace_lines(trace, seg, verdict) -> list[str]:
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
    meta = trace.meta
    lines.append(f"steps={meta.steps_used} created={meta.created} consumed={meta.consumed} "
                 f"limit_hit={'yes' if meta.step_limit_hit else 'no'}")
    if seg is not None:
        lines.append("occurrences: " + " ".join(
            f"{o.region}@{o.interval.start}+{o.interval.duration}" for o in seg.occurrences))
    if verdict is not None:
        lines.append("conformance: " + ("ok" if verdict.ok else
                                        "; ".join(str(d) for d in verdict.errors)))
    return lines


def _cmd_export(args, doc: Document, report: ValidationReport) -> int:
    unresolved = link(doc.model).unresolved
    if unresolved:  # the first of them, as `tm check` prints it
        return _stop(EXIT_SEMANTIC, unresolved_diagnostic(*unresolved[0]))
    if args.format == "json":
        from . import jsonio
        _write_output(jsonio.dumps(jsonio.model_to_obj(doc.model)), args.out)
    else:
        from . import dot
        _write_output(dot.model_to_dot(doc.model, name=Path(args.model).stem), args.out)
    return EXIT_OK


# The command line, one entry per command: the function that runs it, its
# positionals, its options and a summary.  An option takes one value, of
# one of three kinds: one of a tuple of choices (the first is its
# default), a non-negative int (``int``) or a file name (``str``), which
# is neither empty nor '-'; the last two default to None.
_TEXT_JSON = ("text", "json")
_MODES = ("overlap", "strict")
_COMMANDS = {
    "check": (_cmd_check, ("model",),
              {"--format": _TEXT_JSON, "--out": str, "--mode": _MODES},
              "parse and statically validate a model"),
    "events": (_cmd_events, ("model",),
               {"--format": _TEXT_JSON, "--out": str, "--bound": int},
               "summarize regions, or enumerate subdiagrams of at most N elements"),
    "behavior": (_cmd_behavior, ("model",),
                 {"--format": ("text", "json", "dot"), "--out": str, "--mode": _MODES},
                 "infer or validate the behavior graph"),
    "simulate": (_cmd_simulate, ("model", "scenario"),
                 {"--format": _TEXT_JSON, "--out": str},
                 "run a scenario and print the trace"),
    "export": (_cmd_export, ("model",),
               {"--format": ("dot", "json"), "--out": str},
               "render the model as DOT or JSON"),
}
_HELP = ("-h", "--help")
# A word that starts with '-' but is a value, as argparse reads it.
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(word: str, options: dict) -> bool:
    """Whether argparse read ``word`` as an option of a command with
    ``options``: it starts with '-' but is neither '-' nor a negative
    number, and a word with a space in it is a value unless one of
    ``options`` and '=' start it."""
    return (word[:1] == "-" and word != "-" and not _NEGATIVE_NUMBER.match(word)
            and (" " not in word or word.partition("=")[0] in options))


def _synopsis(command: str) -> str:
    _, positionals, options, _ = _COMMANDS[command]
    return " ".join([f"tm {command}", *map(str.upper, positionals), *(
        f"[{option} " + ("|".join(kind) if isinstance(kind, tuple) else
                         "N" if kind is int else "FILE") + "]"
        for option, kind in options.items())])


def _usage(command: str | None = None) -> str:
    """The usage of one command, or of them all."""
    if command:
        return f"usage: {_synopsis(command)}\n  {_COMMANDS[command][3]}\n"
    return ("usage: tm COMMAND ARGUMENTS [OPTIONS]  (tm COMMAND -h for one command)\n\n"
            "Flow-machine model toolkit.  An option goes before, between or after the\n"
            "arguments, as --option VALUE or --option=VALUE; given twice, the last wins.\n"
            "A choice's first value is its default.\n\n"
            + "".join(f"  {_synopsis(command)}\n      {summary}\n"
                      for command, (*_, summary) in _COMMANDS.items()))


def _read_argv(argv: list[str]) -> SimpleNamespace | str:
    """The arguments of a ``tm`` command line, read by ``_COMMANDS``, or
    the usage text that ``-h`` asks for.  Raises ``_Unusable`` on any
    other fault."""
    if not argv:
        raise _Unusable("tm: no command; expected one of " + ", ".join(_COMMANDS))
    command = argv[0]
    if command in _HELP:
        return _usage()
    if command not in _COMMANDS:
        raise _Unusable(f"tm: unknown command '{command}'; expected one of "
                        + ", ".join(_COMMANDS))
    func, positionals, options, _ = _COMMANDS[command]
    args = SimpleNamespace(func=func, **{
        option[2:]: kind[0] if isinstance(kind, tuple) else None
        for option, kind in options.items()})
    given = []
    words = iter(argv[1:])
    for word in words:
        if not _is_option(word, options):
            given.append(word)
            continue
        if word in _HELP:
            return _usage(command)
        option, eq, value = word.partition("=")
        kind = options.get(option)
        if kind is None:
            raise _Unusable(f"tm {command}: unknown option '{option}'")
        if not eq:
            value = next(words, None)
            if value is None or _is_option(value, options):
                raise _Unusable(f"tm {command}: {option} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _Unusable(f"tm {command}: {option} must be an int, not '{value}'"
                                ) from None
            if value < 0:
                raise _Unusable(f"tm {command}: {option} must be >= 0")
        elif kind is str:
            if value in ("", "-"):
                raise _Unusable(f"tm {command}: {option} needs a file name, not '{value}'")
        elif value not in kind:
            raise _Unusable(f"tm {command}: {option} must be one of "
                            f"{', '.join(kind)}, not '{value}'")
        setattr(args, option[2:], value)
    if len(given) > len(positionals):
        raise _Unusable(f"tm {command}: unexpected argument '{given[len(positionals)]}'")
    if len(given) < len(positionals):
        raise _Unusable(f"tm {command}: missing {positionals[len(given)].upper()}")
    vars(args).update(zip(positionals, given))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        doc, report = _load_document(args.model)
        # The one gate: every command but `export` starts from `check`'s
        # verdict, and only `check` renders a failing one, in its own --format.
        if doc is not None and args.func is not _cmd_export:
            report.extend(_full_check(doc, vars(args).get("mode", "overlap")))
        if not report.ok and args.func is not _cmd_check:
            return _stop(EXIT_SYNTAX if doc is None else EXIT_SEMANTIC, *report.diagnostics)
        return args.func(args, doc, report)
    except _Unusable as exc:
        return _stop(EXIT_SYNTAX, error("SYNTAX", str(exc)))
    except BrokenPipeError:
        return EXIT_OK


def run() -> NoReturn:
    """The ``tm`` process: ``main`` on ``sys.argv``, then the ``atexit``
    handlers, a flush of stdout and then stderr, and ``os._exit`` with
    ``main``'s code.  The interpreter's own teardown (a last collection,
    freeing every module and object) would only add to the wait.  An
    exception from ``main`` propagates, and the interpreter ends as usual."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except BrokenPipeError:  # as in main: the reader has all it wanted
                code = EXIT_OK
    os._exit(code)


if __name__ == "__main__":
    run()
