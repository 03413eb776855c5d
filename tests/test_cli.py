import io
import os
import re
import resource
import select
import signal
import subprocess
import sys
import time

import pytest

import mup
from mup.cli import main, repl_loop
from mup.engine import Engine, SolveConfig
from mup.syntax import parse_program, parse_query


MAX_MPL = "max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y).\n"
MEMBER_MPL = "member(X,[Y|L]) :- (Y = X) # member(X,L).\n"
SON_MPL = """
son(X,Y) :- (male(X), father(Y,X)) # (female(X), mother(Y,X)).
male(tom). father(bob,tom). father(jim,tom).
female(ann). mother(sue,ann).
"""


@pytest.fixture
def max_file(tmp_path):
    path = tmp_path / "max.mpl"
    path.write_text(MAX_MPL)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_solution_exit_zero(max_file, capsys):
    code, out, err = run_cli(["run", max_file, "-q", "max(3,9,M)."], capsys)
    assert code == 0
    assert out == "M = 9.\n"


def test_run_no_answer_vars_prints_true(max_file, capsys):
    code, out, _ = run_cli(["run", max_file, "-q", "max(9,3,9)."], capsys)
    assert code == 0
    assert out == "true.\n"


def test_run_zero_solutions_exit_one(max_file, capsys):
    code, out, _ = run_cli(
        ["run", max_file, "-q", "nosuch.", "--unknown", "fail"], capsys
    )
    assert code == 1
    assert out == "false.\n"


def test_run_unknown_predicate_error_exit_two(max_file, capsys):
    code, out, err = run_cli(["run", max_file, "-q", "nosuch."], capsys)
    assert code == 2
    assert "unknown predicate" in err


def test_run_arithmetic_type_error_shows_the_resolved_term(max_file, capsys):
    query = "X = f(Y), Y = a, Z is X + 1."
    code, out, err = run_cli(["run", max_file, "-q", query], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: not an arithmetic expression: f(a)\n"


def test_run_parse_error_exit_two(max_file, capsys):
    code, _, err = run_cli(["run", max_file, "-q", "max(3,9."], capsys)
    assert code == 2
    assert "error" in err


def test_bad_usage_exit_two(max_file, capsys):
    code, _, _ = run_cli(["run", max_file], capsys)
    assert code == 2
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_run_max_solutions_flag(tmp_path, capsys):
    path = tmp_path / "p.mpl"
    path.write_text("p(a). p(b). p(c).\n")
    code, out, err = run_cli(
        ["run", str(path), "-q", "p(X).", "--max-solutions", "2"], capsys
    )
    assert code == 0
    assert out == "X = a.\nX = b.\n"
    assert "limited" in err


def test_run_trace_flag(max_file, capsys):
    code, out, err = run_cli(
        ["run", max_file, "-q", "max(3,9,M).", "--trace"], capsys
    )
    assert code == 0
    lines = [l for l in err.splitlines() if l]
    assert lines, "trace should emit events"
    for line in lines:
        depth, kind, _ = line.split(" ", 2)
        assert depth.lstrip("-").isdigit()
        assert kind in (
            "reduce", "backchain_enter", "backchain_exit",
            "choice_taken", "choice_discarded", "unify_ok", "unify_fail",
        )
    assert any("choice_taken" in l for l in lines)


def test_run_commit_flag(tmp_path, capsys):
    path = tmp_path / "c.mpl"
    path.write_text("p(X) :- ((X = 1 ; X = 2) # X = 3).\n")
    code, out, _ = run_cli(["run", str(path), "-q", "p(X)."], capsys)
    assert out == "X = 1.\nX = 2.\n"
    code, out, _ = run_cli(
        ["run", str(path), "-q", "p(X).", "--commit", "first"], capsys
    )
    assert out == "X = 1.\n"


def test_depth_limit_env_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "loop.mpl"
    path.write_text("p :- p.\n")
    monkeypatch.setenv("MUP_DEPTH_LIMIT", "50")
    code, out, err = run_cli(["run", str(path), "-q", "p."], capsys)
    assert code == 1
    assert out == "false.\n"
    assert "limited" in err


@pytest.mark.parametrize(
    "args, depth_env",
    [
        (["run", "FILE", "-q", "p.", "--depth-limit", "0"], None),
        (["run", "FILE", "-q", "p.", "--max-solutions", "0"], None),
        (["run", "FILE", "-q", "p."], "0"),
        (["run", "FILE", "-q", "p."], "abc"),
        (["selftest", "--depth", "0"], None),
    ],
)
def test_out_of_range_numeric_options_are_usage_errors(tmp_path, args, depth_env):
    path = tmp_path / "p.mpl"
    path.write_text("p.\n")
    env = child_env()
    env.pop("MUP_DEPTH_LIMIT", None)
    if depth_env is not None:
        env["MUP_DEPTH_LIMIT"] = depth_env
    argv = [str(path) if arg == "FILE" else arg for arg in args]
    proc = subprocess.run([sys.executable, "-m", "mup.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "expected a positive integer" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "BAD", "-q", "p(X)."], "is not UTF-8 text"),
        (["translate", "BAD", "-o", "OUT"], "is not UTF-8 text"),
        (["repl", "BAD"], "is not UTF-8 text"),
        (["selftest", "--cases", "-3"], "expected a positive integer"),
    ],
)
def test_bad_files_and_counts_exit_two(tmp_path, args, message):
    bad = tmp_path / "bad.mpl"
    bad.write_bytes(b"p(\xff).\n")
    argv = [{"BAD": str(bad), "OUT": str(tmp_path / "out.pl")}.get(a, a) for a in args]
    proc = subprocess.run([sys.executable, "-m", "mup.cli", *argv], capture_output=True,
                          text=True, env=child_env(), stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    if args[0] != "selftest":
        assert proc.stderr.startswith("error: %s" % bad)


def test_readme_library_example(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = re.search(r"```python\n(.*?)```", handle.read(), re.S).group(1)
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exhausted ['M = 9']"
    assert lines[1] == "M = 5"
    assert lines[-1] == "True"


def test_translate_command(tmp_path, capsys):
    src = tmp_path / "member.mpl"
    src.write_text(MEMBER_MPL)
    dst = tmp_path / "member.pl"
    code, _, _ = run_cli(
        ["translate", str(src), "-o", str(dst), "--mode", "hard_cut"], capsys
    )
    assert code == 0
    text = dst.read_text()
    assert text.startswith("%")
    assert "member.mpl" in text.splitlines()[0]
    assert "hard_cut" in text.splitlines()[0]
    assert "'$choice_1'" in text
    parse_program(text, dialect="prolog")


def test_translate_mode_takes_the_translator_names(tmp_path, capsys):
    src = tmp_path / "member.mpl"
    src.write_text(MEMBER_MPL)
    dst = tmp_path / "member.pl"
    argv = ["translate", str(src), "-o", str(dst), "--mode"]
    assert run_cli(argv + ["soft_cut"], capsys)[0] == 0
    text = dst.read_text()
    assert "soft_cut" in text.splitlines()[0] and "*->" in text
    code, _, err = run_cli(argv + ["soft"], capsys)
    assert code == 2 and "invalid choice: 'soft'" in err


def test_selftest_command(capsys):
    code, out, _ = run_cli(
        ["selftest", "--seed", "1", "--cases", "40", "--depth", "8"], capsys
    )
    assert code == 0
    assert "0 mismatches" in out
    assert "selftest passed" in out


def test_python_dash_m_mup_runs_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "mup", "--help"], capture_output=True,
                          text=True, env=child_env(), stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mup")


def test_solution_lines_reparse_as_equalities(tmp_path, capsys):
    path = tmp_path / "pairs.mpl"
    path.write_text("pair(a, f(b)). pair(X, X).\n")
    code, out, _ = run_cli(["run", str(path), "-q", "pair(U, V)."], capsys)
    assert code == 0
    for line in out.splitlines():
        goal = parse_query(line).goal
        assert goal.functor == "," or goal.functor == "="


# ---------------------------------------------------------------------------
# REPL


def run_repl(script, files_text=MEMBER_MPL, cfg=None):
    program = parse_program(files_text)
    out = io.StringIO()
    repl_loop(program, cfg or SolveConfig(), inp=io.StringIO(script), out=out)
    return out.getvalue()


def test_repl_enumerates_on_semicolon():
    text = run_repl("member(X,[a,b,c]).\n;\n:quit.\n")
    assert "X = a" in text
    # committed member: asking for more yields no second occurrence
    assert "false." in text


def test_repl_simple_equality():
    text = run_repl("X = a.\n.\n:quit.\n")
    assert "X = a." in text


def test_repl_parse_error_keeps_looping():
    text = run_repl("oops(.\nX = ok.\n.\n:quit.\n")
    assert "error" in text
    assert "X = ok." in text


def test_repl_commit_directive():
    script = ":commit first.\nson(tom,Y).\n;\n:quit.\n"
    text = run_repl(script, SON_MPL)
    assert "commit mode: first" in text
    assert "Y = bob" in text
    assert "Y = jim" not in text


def test_repl_commit_directive_keeps_other_settings():
    cfg = SolveConfig(unknown_predicate="fail")
    text = run_repl(":commit first.\nnope.\n:quit.\n", cfg=cfg)
    assert "commit mode: first" in text
    assert "false." in text
    assert "error" not in text


def test_repl_load_directive(tmp_path):
    extra = tmp_path / "facts.mpl"
    extra.write_text("fact(one).\n")
    script = ":load %s.\nfact(F).\n.\n:quit.\n" % extra
    text = run_repl(script)
    assert "loaded" in text
    assert "F = one" in text


def test_repl_load_of_a_file_that_is_not_utf8_keeps_looping(tmp_path):
    bad = tmp_path / "bad.mpl"
    bad.write_bytes(b"p(\xff).\n")
    text = run_repl(":load %s.\nX = ok.\n.\n:quit.\n" % bad)
    assert "error: %s is not UTF-8 text" % bad in text
    assert "X = ok." in text


def test_repl_exhausted_prints_false():
    text = run_repl("member(z,[a,b]).\n:quit.\n")
    assert "false." in text


def test_repl_stops_after_max_solutions():
    script = "p(X).\n;\n;\n:quit.\n"
    text = run_repl(script, "p(1). p(2). p(3).\n", SolveConfig(max_solutions=2))
    assert "X = 1;\nX = 2;\n% search was limited\n?- " in text
    assert "X = 3" not in text and "false." not in text
    # With no answer past the limit the search ends as usual.
    text = run_repl(script, "p(1). p(2).\n", SolveConfig(max_solutions=2))
    assert "X = 2;\nfalse.\n" in text and "limited" not in text


def test_repl_reports_a_search_cut_off_by_the_depth_limit():
    text = run_repl("q(1).\n:quit.\n", "q(X) :- q(X).\n", SolveConfig(depth_limit=5))
    assert "% search was limited\nfalse.\n" in text


def test_batch_and_repl_agree(tmp_path):
    program_text = "p(a). p(b). p(c).\n"
    program = parse_program(program_text)
    batch = Engine(program).run_query("p(X).")
    batch_lines = ["%s." % s.render() for s in batch.solutions]

    script = "p(X).\n;\n;\n;\n:quit.\n"
    text = run_repl(script, program_text)
    repl_lines = [
        l.removeprefix("?- ").rstrip(";.").strip()
        for l in text.splitlines()
        if l.removeprefix("?- ").startswith("X = ")
    ]
    assert repl_lines == [l.rstrip(".") for l in batch_lines]
    assert "false." in text


def child_env():
    """The environment of a child Python that imports this ``mup``."""
    src = os.path.dirname(os.path.dirname(mup.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath)


CHILD_MEMORY = 2 << 30  # bytes of address space a child may take


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_cli_subprocess(tmp_path, program_text, query, *options, stderr=subprocess.PIPE,
                       timeout=120):
    """``mup run`` in a child Python with its own, default-sized stack.

    A child that runs away fails the test instead of hanging it or taking
    the host's memory: it is killed after ``timeout`` seconds, and its
    address space is capped.
    """
    path = tmp_path / "prog.mpl"
    path.write_text(program_text)
    return subprocess.run(
        [sys.executable, "-m", "mup.cli", "run", str(path), "-q", query, *options],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
        env=child_env(),
        timeout=timeout,
        preexec_fn=_limit_child_memory,
    )


@pytest.mark.parametrize(
    "query, code, expected",
    [
        ("X = f(X), Y = f(Y), X = Y.", 2, "error: cannot resolve a cyclic term"),
        ("c.", 0, "true.\n"),
        ("X = f(X, a), Y = f(Y, b), X = Y.", 1, "false.\n"),
    ],
)
def test_unifying_two_cyclic_terms_ends(tmp_path, query, code, expected):
    program_text = "c :- X = f(X), Y = f(Y), X = Y.\n"
    proc = run_cli_subprocess(tmp_path, program_text, query, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout if code != 2 else proc.stderr).startswith(expected)


def countdown_max_rss_kb(steps):
    """Max RSS of a child Python after the ``#`` countdown of ``steps`` steps."""
    code = (
        "import resource, mup\n"
        "program = mup.parse_program('c(N) :- (N =< 0) # (M is N-1, c(M)).')\n"
        "result = mup.Engine(program).run_query('c(%d).')\n"
        "assert result.outcome == 'exhausted' and len(result.solutions) == 1\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n" % steps
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=120, preexec_fn=_limit_child_memory,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_deterministic_countdown_runs_in_bounded_memory():
    # A step's bindings are not trailed, so its cells die with it.  With
    # every binding trailed, 2 x 10^5 steps took about 34 MB more.
    small = countdown_max_rss_kb(1000)
    large = countdown_max_rss_kb(200_000)
    assert large - small < 4 * 1024, (small, large)


def test_escapes_in_a_quoted_atom_read_in_bounded_memory():
    # Escapes are read one at a time: a pattern repeating a group per
    # escape grew max RSS by 240 MB on this atom.
    code = (
        "import resource\n"
        "from mup.syntax import parse_term\n"
        "text = \"'\" + \"''\" * 500000 + \"'.\"\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert parse_term(text).name == \"'\" * 500000\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=120, preexec_fn=_limit_child_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024


def test_translation_is_linear_in_the_number_of_choices(tmp_path):
    # Each choice's variables come from its translated sides, where an
    # inner choice is one call; walking each original subtree took minutes.
    path = tmp_path / "chain.mpl"
    path.write_text("p(X) :- %s.\n" % " # ".join("X = %d" % i for i in range(20000)))
    proc = subprocess.run(
        [sys.executable, "-m", "mup.cli", "translate", str(path), "-o",
         str(tmp_path / "chain.pl")],
        capture_output=True, text=True, env=child_env(), timeout=60,
        preexec_fn=_limit_child_memory,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "chain.pl").read_text().splitlines()
    assert len(lines) == 2 + 2 * 19999  # a comment, p/1 and two per '#'
    assert lines[-2:] == ["'$choice_19999'(X) :- X = 0, !.",
                          "'$choice_19999'(X) :- '$choice_19998'(X)."]


def test_import_mup_leaves_oracle_and_transpiler_unloaded():
    code = (
        "import sys, mup\n"
        "print([m for m in ('mup.oracle', 'mup.transpile') if m in sys.modules])\n"
        "names = ('translate', 'provable', 'selftest', 'count_solutions_bruteforce')\n"
        "print([callable(getattr(mup, name)) for name in names])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.stdout == "[]\n[True, True, True, True]\n", proc.stderr


def test_every_public_name_resolves():
    for name in mup.__all__:
        getattr(mup, name)


NUM_MPL = "num(0,[]).\nnum(N,[N|T]) :- N > 0, M is N-1, num(M,T).\n"


def test_run_long_answer(tmp_path, capsys):
    path = tmp_path / "num.mpl"
    path.write_text(NUM_MPL)
    code, out, err = run_cli(["run", str(path), "-q", "num(3000,L)."], capsys)
    assert code == 0, err
    assert out.startswith("L = [3000, 2999, ")
    assert out.endswith(", 2, 1].\n")


@pytest.mark.parametrize("n", [5000, 100_000])
def test_run_deep_clause_literal_succeeds(tmp_path, n):
    # The engine builds clause bodies iteratively and shares ground parts.
    items = ", ".join(str(i) for i in range(n))
    proc = run_cli_subprocess(tmp_path, "p :- X = [%s], X = X.\n" % items, "p.")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "true.\n"
    assert "Traceback" not in proc.stderr


DEPTH = 5000
DEEP_F = "f(" * DEPTH + "a" + ")" * DEPTH
MK_MPL = "mk(0, a).\nmk(N, f(T)) :- N > 0, M is N-1, mk(M, T).\n"
LONG_BODY = "p :- %s.\n" % ", ".join(["true"] * DEPTH)
CHOICE_CHAIN = "p(X) :- %s.\n" % " # ".join("X = %d" % i for i in range(DEPTH))
BIG = "1" + "0" * 400  # too large for a float
HUGE = "1" + "0" * 2500  # its square has more digits than Python prints
# A head list of 5,000 variables, matched in write mode (L unbound), then
# in read mode (L bound).
LIST_HEAD = "p([%s], X0, X%d).\nq(F, E) :- p(L, a, z), p(L, F, E).\n" % (
    ", ".join("X%d" % i for i in range(DEPTH)), DEPTH - 1)


@pytest.mark.parametrize(
    "program_text, query, code, expected",
    [
        pytest.param(LONG_BODY, "p.", 0, "true.\n", id="long_body"),
        pytest.param(CHOICE_CHAIN, "p(X).", 0, "X = 0.\n", id="choice_chain"),
        pytest.param(
            "p(X) :- X = %s.\n" % DEEP_F, "p(X).", 2, "error: nested too deeply",
            id="deep_term_in_clause",
        ),
        pytest.param(
            "p(_).\n", "p(%s)." % DEEP_F, 2, "error: nested too deeply",
            id="deep_term_in_query",
        ),
        pytest.param(
            MK_MPL, "mk(%d, T)." % DEPTH, 0, "T = %s.\n" % DEEP_F,
            id="deep_term_in_answer",
        ),
        pytest.param(
            "p(X) :- %sX = 1%s.\n" % ("(" * DEPTH, ")" * DEPTH), "p(X).",
            2, "error: nested too deeply",
            id="nested_parentheses",
        ),
        pytest.param(
            "p(X) :- X is %s.\n" % "+".join(["1"] * DEPTH), "p(X).", 0,
            "X = %d.\n" % DEPTH, id="arith_chain",
        ),
        pytest.param(LIST_HEAD, "q(F, E).", 0, "F = a, E = z.\n", id="list_head"),
        pytest.param(
            "p(X) :- %s.\nq(1).\n" % ", ".join(["q(X)"] * DEPTH), "p(X).", 0,
            "X = 1.\n", id="shared_variable_body",
        ),
        # Without the occurs check a variable can be bound to a term that
        # contains it; such a term has no finite answer or value.
        pytest.param("p.\n", "X = f(X).", 2, "error: cannot resolve a cyclic term",
                     id="cyclic_answer"),
        pytest.param("p.\n", "X = f(X), write(X).", 2,
                     "error: cannot resolve a cyclic term", id="cyclic_write"),
        pytest.param("p.\n", "X = X + 1, Y is X.", 2,
                     "error: arithmetic on a cyclic term", id="cyclic_arith"),
        pytest.param("p.\n", "X is %s / 1." % BIG, 2, "error: arithmetic overflow",
                     id="big_int_division"),
        pytest.param("p.\n", "X is %s * 1.0." % BIG, 2, "error: arithmetic overflow",
                     id="big_int_times_float"),
        pytest.param("p.\n", "X is 1.0e308 * 10.", 2, "error: arithmetic overflow",
                     id="float_overflow"),
        pytest.param("p.\n", "X = 1e999.", 2, "error: float literal out of range",
                     id="float_literal_overflow"),
        pytest.param("p.\n", "X = 1%s." % ("0" * 5000), 2,
                     "error: integer literal too long", id="long_int_literal"),
        pytest.param("p.\n", "X = 'a\\nb'.", 0, "X = 'a\\nb'.\n", id="newline_atom"),
        # A computed integer can have more digits than the host prints.
        pytest.param("p.\n", "X is %s * %s." % (HUGE, HUGE), 2,
                     "error: integer too large to print", id="big_int_answer"),
        pytest.param("p.\n", "X is %s * %s, write(X)." % (HUGE, HUGE), 2,
                     "error: integer too large to print", id="big_int_write"),
    ],
)
def test_deep_inputs_never_print_a_traceback(tmp_path, program_text, query, code, expected):
    proc = run_cli_subprocess(tmp_path, program_text, query)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout == expected
    else:
        assert proc.stderr.startswith(expected)
    if program_text not in (LONG_BODY, CHOICE_CHAIN):
        return
    # Tracing prints each goal reduced: for the long body, 75 MB in all,
    # so stderr goes to a file and is scanned line by line.
    err_path = tmp_path / "trace.txt"
    with open(err_path, "w") as err:
        proc = run_cli_subprocess(tmp_path, program_text, query, "--trace", stderr=err)
    with open(err_path) as err:
        assert not any("Traceback" in line for line in err)
    assert proc.returncode == 0
    assert proc.stdout == expected
    out_path = tmp_path / "prog.pl"
    proc = subprocess.run(
        [sys.executable, "-m", "mup.cli", "translate", str(tmp_path / "prog.mpl"),
         "-o", str(out_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    # Each '#' becomes an auxiliary predicate of two clauses.
    translated = parse_program(out_path.read_text(), dialect="prolog")
    assert len(translated) == 1 + 2 * program_text.count("#")


def test_repl_error_while_printing_an_answer_keeps_looping():
    text = run_repl("X is %s * %s.\nX = ok.\n.\n:quit.\n" % (HUGE, HUGE))
    assert "error: integer too large to print" in text
    assert "X = ok" in text


def test_repl_trace_directive():
    script = ":trace on.\nmember(a,[a]).\n.\n:trace off.\n:quit.\n"
    text = run_repl(script)
    assert "trace on" in text
    assert "backchain_enter" in text
    assert "trace off" in text


def test_repl_runs_interactive_read_programs():
    # read/1 pulls terms from the same console stream between prompts.
    rprime = """
    rprime :- read(X),
              ((prime(X), write('prime')) # (composite(X), write('composite'))).
    prime(2). prime(3). prime(5). prime(7).
    composite(4). composite(6). composite(8). composite(9).
    """
    text = run_repl("rprime.\n9.\n.\n:quit.\n", rprime)
    assert "composite" in text
    assert "prime" not in text.replace("composite", "")
    assert "true." in text


def test_run_separates_program_output_from_answers(tmp_path, capsys):
    path = tmp_path / "w.mpl"
    path.write_text("greet :- write(hello).\n")
    code, out, _ = run_cli(["run", str(path), "-q", "greet."], capsys)
    assert code == 0
    assert out == "hello\ntrue.\n"


# ---------------------------------------------------------------------------
# Ctrl-C: SIGINT sent to a child process, never to the test runner

INTERRUPTIBLE = "p(1).\nloop :- write(go), nl, spin.\nspin :- spin.\n"


def start_interruptible(tmp_path, *argv):
    """A child ``mup`` with unbuffered output, over ``INTERRUPTIBLE``."""
    path = tmp_path / "loop.mpl"
    path.write_text(INTERRUPTIBLE)
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "mup.cli", argv[0], str(path), *argv[1:]],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), preexec_fn=_limit_child_memory,
    )


def read_until(proc, marker, timeout=60):
    """The child's output up to and including ``marker``, read as it comes."""
    data = b""
    deadline = time.monotonic() + timeout
    while marker not in data:
        assert time.monotonic() < deadline, data
        if select.select([proc.stdout], [], [], 1)[0]:
            chunk = os.read(proc.stdout.fileno(), 4096)
            assert chunk, data  # the child ended first
            data += chunk
    return data


def interrupt(proc, query=None, then=b""):
    """SIGINT to the child once its query runs (``query``, if given, is typed
    at the REPL's prompt); its output and stderr after it reads ``then``."""
    try:
        if query is not None:
            read_until(proc, b"?- ")
            proc.stdin.write(query)
            proc.stdin.flush()
        out = read_until(proc, b"go\n")
        proc.send_signal(signal.SIGINT)
        rest, err = proc.communicate(then, timeout=60)
    finally:
        proc.kill()
    return (out + rest).decode(), err.decode()


def test_ctrl_c_ends_the_query_and_keeps_the_repl(tmp_path):
    proc = start_interruptible(tmp_path, "repl")
    out, err = interrupt(proc, b"loop.\n", then=b"p(X).\n.\n:quit.\n")
    assert proc.returncode == 0, err
    assert out.startswith("go\n% interrupted\n?- ") and "X = 1.\n" in out
    assert "Traceback" not in err


def test_ctrl_c_ends_run_with_status_130(tmp_path):
    proc = start_interruptible(tmp_path, "run", "-q", "loop.")
    out, err = interrupt(proc)
    assert proc.returncode == 130
    assert out == "go\n" and err == "% interrupted\n"


class InterruptedConsole(io.StringIO):
    """Console input that raises KeyboardInterrupt on its ``at``-th line."""

    def __init__(self, script, at):
        super().__init__(script)
        self.left = at

    def readline(self):
        self.left -= 1
        if self.left == 0:
            raise KeyboardInterrupt
        return super().readline()


def test_ctrl_c_while_the_shell_waits_for_more_answers_keeps_the_session():
    out = io.StringIO()
    console = InterruptedConsole("member(X,[a,b]).\nmember(X,[c]).\n.\n:quit.\n", at=2)
    repl_loop(parse_program(MEMBER_MPL), SolveConfig(), inp=console, out=out)
    assert "X = a\n% interrupted\n?- " in out.getvalue()
    assert "X = c." in out.getvalue()
