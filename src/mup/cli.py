"""Command-line entry point: run, repl, translate, selftest."""

import argparse
import dataclasses
import os
import sys

from mup.builtins import IoPorts
from mup.engine import (
    COMMIT_MODES, ERRORED, LIMITED, UNKNOWN_MODES, Engine, SolveConfig,
)
from mup.errors import LoadError, MupError
from mup.syntax import Program, parse_program, parse_query
from mup.transpile import MODES, translate

# What ``run`` and the shell say when a limit may have hidden answers.
_LIMITED = "% search was limited"


def _engine_flags(parser):
    parser.add_argument(
        "--commit", choices=COMMIT_MODES, default="soft",
        help="committed-choice mode: keep the chosen disjunct's "
             "alternatives (soft) or only its first solution (first)",
    )
    parser.add_argument(
        "--occurs-check", action="store_true",
        help="enable the occurs check during unification",
    )
    parser.add_argument(
        "--depth-limit", type=_positive_int, metavar="N",
        # argparse passes a string default through ``type`` as well.
        default=os.environ.get("MUP_DEPTH_LIMIT") or None,
        help="bound on backchaining depth (default: $MUP_DEPTH_LIMIT)",
    )
    parser.add_argument(
        "--max-solutions", type=_positive_int, metavar="N", default=None,
        help="stop after N solutions",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print one trace event per line on stderr",
    )
    parser.add_argument(
        "--unknown", choices=UNKNOWN_MODES, default="error",
        help="treat calls to undefined predicates as an error or as failure",
    )


def _positive_int(text):
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _config(args):
    return SolveConfig(
        commit_mode=args.commit,
        occurs_check=args.occurs_check,
        depth_limit=args.depth_limit,
        max_solutions=args.max_solutions,
        unknown_predicate=args.unknown,
    )


def _writer(out, flush=False):
    """A write function for ``out``, and a function that ends an open line.

    Program output (write/1) may leave a line open; ending it first puts
    each answer on a line of its own.
    """
    last_char = ["\n"]

    def write(text):
        if text:
            last_char[0] = text[-1]
        out.write(text)
        if flush:
            try:
                out.flush()
            except (AttributeError, ValueError):
                pass

    def end_line():
        if last_char[0] != "\n":
            write("\n")

    return write, end_line


def _tracer(on, write):
    """A trace hook that writes one event per line, or None when off."""
    return (lambda event: write("%s\n" % event.line())) if on else None


def _load_file(path):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise LoadError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return parse_program(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mup",
        description="Logic programming with committed-choice disjunction "
                    "(G0 # G1 runs the first provable disjunct and discards "
                    "the other).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one query against a program file")
    p_run.add_argument("file", help="program file (.mpl)")
    p_run.add_argument("-q", "--query", required=True, metavar="GOAL.",
                       help="query text, terminated by '.'")
    _engine_flags(p_run)
    p_run.set_defaults(run=_cmd_run)

    p_repl = sub.add_parser("repl", help="interactive query shell")
    p_repl.add_argument("files", nargs="*", help="program files to preload")
    _engine_flags(p_repl)
    p_repl.set_defaults(run=_cmd_repl)

    p_tr = sub.add_parser("translate", help="compile to cut-based Prolog")
    p_tr.add_argument("file", help="program file (.mpl)")
    p_tr.add_argument("-o", "--output", required=True, metavar="OUT.pl")
    p_tr.add_argument("--mode", choices=MODES, default="hard_cut",
                      help="encoding of choice: (G,!);H or (G *-> true ; H)")
    p_tr.set_defaults(run=_cmd_translate)

    p_st = sub.add_parser(
        "selftest",
        help="differential test of the engine against the brute-force oracles",
    )
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--cases", type=_positive_int, default=300)
    p_st.add_argument("--depth", type=_positive_int, default=10)
    p_st.set_defaults(run=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.run(args)
    except (MupError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("% interrupted", file=sys.stderr)
        return 130


def _cmd_run(args):
    program = _load_file(args.file)
    write, end_line = _writer(sys.stdout)
    io = IoPorts(write=write)
    trace = _tracer(args.trace, sys.stderr.write)
    result = Engine(program, _config(args), io=io, trace=trace).run_query(args.query)
    end_line()  # separate program output (write/1) from answers
    for solution in result.solutions:
        print("%s." % solution.render())
    if result.outcome == ERRORED:
        raise result.error  # main prints it
    if result.outcome == LIMITED:
        print(_LIMITED, file=sys.stderr)
    if not result.solutions:
        print("false.")
        return 1
    return 0


def _cmd_translate(args):
    program = _load_file(args.file)
    text = translate(program, args.mode, source_name=os.path.basename(args.file))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


def _cmd_selftest(args):
    from mup.oracle import selftest

    report = selftest(seed=args.seed, cases=args.cases, depth=args.depth)
    print(report.summary())
    for case, mode in report.solution_mismatches:
        print("counterexample (mode %s):" % mode)
        print(case.describe())
    for case in report.success_mismatches:
        print("counterexample (angelic disagreement):")
        print(case.describe())
    if report.ok:
        print("selftest passed")
        return 0
    print("selftest FAILED")
    return 1


def _cmd_repl(args):
    clauses = []
    for path in args.files:
        clauses.extend(_load_file(path).clauses)
    repl_loop(Program(clauses), _config(args), trace_on=args.trace)
    return 0


def repl_loop(program, cfg, inp=None, out=None, trace_on=False):
    """Interactive prompt: query, then ';' for more answers, '.' to stop.

    Directives: ':load FILE.'  ':trace on|off.'  ':commit soft|first.'
    ':quit.'
    """
    inp = inp or sys.stdin
    out = out or sys.stdout
    emit, end_line = _writer(out, flush=True)
    io = IoPorts(read_line=lambda: inp.readline() or None, write=emit)
    tracer = _tracer(trace_on, emit)

    emit("mup shell; ':quit.' leaves, '#' is committed choice\n")
    while True:
        emit("?- ")
        line = inp.readline()
        if not line:
            emit("\n")
            return
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.rstrip(".")[1:].split()
            if parts[:1] == ["quit"]:
                return
            if len(parts) == 2 and parts[0] == "load":
                try:
                    program = Program(program.clauses + _load_file(parts[1]).clauses)
                except (MupError, OSError) as exc:
                    emit("error: %s\n" % exc)
                    continue
                emit("loaded %s\n" % parts[1])
                continue
            if len(parts) == 2 and parts[0] == "trace" and parts[1] in ("on", "off"):
                tracer = _tracer(parts[1] == "on", emit)
                emit("trace %s\n" % parts[1])
                continue
            if len(parts) == 2 and parts[0] == "commit" and parts[1] in COMMIT_MODES:
                cfg = dataclasses.replace(cfg, commit_mode=parts[1])
                emit("commit mode: %s\n" % parts[1])
                continue
            emit("unknown directive: %s\n" % line)
            continue

        engine = Engine(program, cfg, io=io, trace=tracer)
        _enumerate_answers(engine, line, inp, emit, end_line)


def _enumerate_answers(engine, text, inp, emit, end_line):
    """Show the answers of query ``text`` one per ';', as ``run`` collects them.

    The shell says when ``max_solutions`` or the depth limit cut the search
    off, and Ctrl-C ends the query, not the session.
    """
    shown = 0
    answers = None
    try:
        query = parse_query(text)
        answers = engine.solve(query.goal, query.answer_vars)
        for shown, solution in enumerate(answers, 1):
            end_line()  # separate program output (write/1) from the answer
            emit(solution.render())
            if inp.readline().strip() != ";":
                emit(".\n")
                return
            emit(";\n")
    except MupError as exc:
        emit("error: %s\n" % exc)
        return
    except KeyboardInterrupt:
        end_line()
        emit("% interrupted\n")
        return
    finally:
        if answers is not None:
            answers.close()  # undoes the run's bindings
    end_line()
    if answers.outcome == LIMITED:
        emit(_LIMITED + "\n")
        if shown == engine.cfg.max_solutions:  # stopped at the limit
            return
    emit("false.\n")


if __name__ == "__main__":
    sys.exit(main())
