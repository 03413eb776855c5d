import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mup.engine import Engine, SolveConfig
from mup.errors import MupError
from mup.oracle import (
    bruteforce_run,
    count_solutions_bruteforce,
    generate_case,
    provable,
    selftest,
)
from mup.syntax import answer_vars_of, parse_program, parse_query
from mup.terms import Const

from helpers import clause_equal


def goal_of(text):
    return parse_query(text).goal


def test_provable_unit_fact():
    assert provable(parse_program("p."), goal_of("p."), 1)


def test_provable_empty_program():
    assert not provable(parse_program("q."), goal_of("p."), 10)


def test_provable_depth_bound_bites():
    program = parse_program("p :- q. q :- r. r.")
    goal = goal_of("p.")
    assert not provable(program, goal, 2)
    assert provable(program, goal, 3)


def test_provable_member_angelic_right_disjunct():
    # Hand derivation: at the first cell the left disjunct fails (b = a),
    # the angelic choice takes the recursion, then the left succeeds (b = b).
    program = parse_program("member(X,[Y|L]) :- (Y = X) # member(X,L).")
    assert provable(program, goal_of("member(b,[a,b])."), 5)


def test_provable_angelic_beats_committed():
    # Committed execution fails this goal (left disjunct commits X to a),
    # but a proof exists through the right disjunct.
    program = parse_program("p(X) :- (X = a # X = b).")
    goal = goal_of("p(b).")
    assert provable(program, goal, 5)
    engine = Engine(parse_program("p(X) :- (X = a # X = b)."))
    # Head unification constrains X before the choice runs, so the engine
    # agrees here; the angelic/committed gap needs a post-commit constraint:
    assert len(list(engine.solve(goal))) == 1
    conj_goal = goal_of("p(X), X = b.")
    assert provable(program, conj_goal, 5)
    assert list(Engine(program).solve(conj_goal)) == []


def test_bruteforce_max_example(max_program):
    sols = count_solutions_bruteforce(max_program, goal_of("max(3,9,M)."), 6)
    assert [s.render() for s in sols] == ["M = 9"]


def test_bruteforce_member_committed(member_choice):
    sols = count_solutions_bruteforce(
        member_choice, goal_of("member(X,[a,b])."), 6
    )
    assert [s.render() for s in sols] == ["X = a"]


def test_bruteforce_member_classical(member_classic):
    sols = count_solutions_bruteforce(
        member_classic, goal_of("member(X,[a,b])."), 6
    )
    assert [s.render() for s in sols] == ["X = a", "X = b"]


def test_bruteforce_first_mode():
    program = parse_program("p(X) :- ((X = 1 ; X = 2) # X = 3).")
    soft = count_solutions_bruteforce(program, goal_of("p(X)."), 8, "soft")
    first = count_solutions_bruteforce(program, goal_of("p(X)."), 8, "first")
    assert [s.render() for s in soft] == ["X = 1", "X = 2"]
    assert [s.render() for s in first] == ["X = 1"]


def test_bruteforce_limited_choice_does_not_fall_through():
    program = parse_program("loop :- loop. p(X) :- (loop # X = ok).")
    sols, limited = bruteforce_run(program, goal_of("p(X)."), 20)
    assert sols == [] and limited


@pytest.mark.parametrize("mode", ["soft", "first"])
def test_bruteforce_keeps_a_bound_hit_past_a_commit(mode):
    # The first clause of b is cut off by the bound; the second answers.
    # Committing the outer '#' to that answer must not lose the hit.
    program = parse_program("loop :- loop. b :- loop. b. a :- (b # true) # true.")
    sols, limited = bruteforce_run(program, goal_of("a."), 5, mode)
    assert [s.render() for s in sols] == ["true"] and limited


@pytest.mark.parametrize("mode", ["soft", "first"])
def test_a_call_with_no_clauses_at_the_bound_fails_finitely(mode):
    # q has no clauses, so q(X) fails before the bound is looked at, as
    # in the engine, and '#' falls through to its right side.
    program = parse_program("p(a) :- (q(X) # true).")
    query = parse_query("p(Y).")
    cfg = SolveConfig(commit_mode=mode, depth_limit=1, unknown_predicate="fail")
    result = Engine(program, cfg).solve_collect(query.goal, query.answer_vars)
    assert [s.render() for s in result.solutions] == ["Y = a"]
    assert result.outcome == "exhausted"
    sols, limited = bruteforce_run(program, query.goal, 1, mode)
    assert [s.render() for s in sols] == ["Y = a"] and not limited


def test_bruteforce_matches_engine_on_examples(son_program):
    for text in ("son(tom,Y).", "son(ann,Y)."):
        goal = goal_of(text)
        engine_sols = list(Engine(son_program).solve(goal))
        oracle_sols = count_solutions_bruteforce(son_program, goal, 10)
        assert engine_sols == oracle_sols


ARITH_PROGRAM = """
c(N) :- (N =< 0) # (M is N-1, c(M)).
sign(X, S) :- (X < 0, S = neg) # ((X > 0, S = pos) # S = zero).
upto(L, H, L) :- L =< H.
upto(L, H, X) :- L < H, L1 is L + 1, upto(L1, H, X).
"""


@pytest.mark.parametrize("mode", ["soft", "first"])
@pytest.mark.parametrize("query, limited", [
    ("c(5).", False),
    ("c(50).", True),  # the countdown outruns the depth limit
    ("X is -(3) * 4 + 10 // 3 - 7 mod 3.", False),
    ("X is (2 + 3) * -(4) - 6 / 4.", False),
    ("X is -7 // 2, Y is -7 mod 2, Z is 7 mod -2.", False),
    ("X is 2 * (3 + 4) mod 5, Y is -(X) + 1.", False),
    ("X is 1.5 * 2 - -(2.5).", False),
    ("(1 + 2 * 3 < 2 * 4 # fail).", False),
    ("X = 5, (X * 2 >= 3 + 4, R = big ; R = small).", False),
    ("sign(-(2) * 3, S).", False),
    ("sign(4 - 4, S).", False),
    ("sign(10 // 3 - 3, S).", False),
    ("upto(1, 4, X), X * X > 5.", False),
    ("upto(1, 5, X), (X mod 2 =< 0 # X - 1 > 2).", False),
])
def test_oracle_arithmetic_agrees_with_engine(query, limited, mode):
    # Recursion under a depth limit, is/2 over compound expressions with
    # unary minus, and comparisons of compound expressions inside # and ;.
    program = parse_program(ARITH_PROGRAM)
    parsed = parse_query(query)
    expected, oracle_limited = bruteforce_run(
        program, parsed.goal, 12, mode, parsed.answer_vars)
    cfg = SolveConfig(commit_mode=mode, depth_limit=12)
    result = Engine(program, cfg).solve_collect(parsed.goal, parsed.answer_vars)
    assert result.error is None
    assert [s.render() for s in result.solutions] == [s.render() for s in expected]
    assert oracle_limited == (result.outcome == "limited") == limited


def _arith(depth):
    """Expression text over N and small integers, at most ``depth`` deep."""
    leaf = st.one_of(st.integers(0, 4).map(str), st.just("N"))
    if depth == 0:
        return leaf
    return st.one_of(leaf, st.builds(
        "({} {} {})".format, _arith(depth - 1), st.sampled_from("+-*"),
        _arith(depth - 1)))


_COMPARISON = st.builds(
    "{} {} {}".format, _arith(2), st.sampled_from(["<", ">", "=<", ">="]), _arith(2))


@st.composite
def _guard_clause(draw):
    """p(N, X) :- a '#' whose left side is 1-3 comparisons, optionally
    followed by a binding and a recursive call."""
    left = draw(st.lists(_COMPARISON, min_size=1, max_size=3))
    if draw(st.booleans()):
        left.append("X = %s" % draw(st.sampled_from("ab")))
    if draw(st.booleans()):
        left.append("p(N - 1, X)")
    right = draw(st.sampled_from(
        ["X = r", "fail", "p(N - 1, X)", "(N > 0, X = s) # X = t"]))
    return "p(N, X) :- (%s) # (%s)." % (", ".join(left), right)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    clauses=st.lists(_guard_clause(), min_size=1, max_size=2),
    n=st.integers(0, 4),
    depth=st.integers(1, 8),
)
def test_guards_agree_with_the_oracle(clauses, n, depth):
    program = parse_program("\n".join(clauses))
    parsed = parse_query("p(%d, X)." % n)
    for mode in ("soft", "first"):
        expected, oracle_limited = bruteforce_run(
            program, parsed.goal, depth, mode, parsed.answer_vars)
        cfg = SolveConfig(commit_mode=mode, depth_limit=depth)
        result = Engine(program, cfg).solve_collect(parsed.goal, parsed.answer_vars)
        assert result.error is None
        assert [s.render() for s in result.solutions] == [
            s.render() for s in expected]
        assert (result.outcome == "limited") == oracle_limited


def corpus_digest(cases, depth=12):
    """sha256 over each corpus case's text and the engine's answers to it
    in both commit modes, as the selftest runs it."""
    digest = hashlib.sha256()
    for i in range(cases):
        case = generate_case(i)
        digest.update(case.describe().encode())
        answer_vars = answer_vars_of(case.goal)
        for mode in ("soft", "first"):
            cfg = SolveConfig(commit_mode=mode, depth_limit=depth,
                              unknown_predicate="fail")
            result = Engine(case.program, cfg).solve_collect(case.goal, answer_vars)
            rendered = [s.render() for s in result.solutions]
            digest.update(("%s %s %r\n" % (mode, result.outcome, rendered)).encode())
    return digest.hexdigest()


def test_selftest_corpus_and_answers_are_pinned():
    # The corpus generator and the engine's answers on it may not drift:
    # ``mup selftest`` must print the same report before and after a change
    # to either.  The digest covers the first 1,000 cases of seed 0.
    assert corpus_digest(1000) == (
        "a38f9e28b577cf5b4dc747242e6e6055aa657211b8ce59e0f1535d344ca45d77")


def oracle_digest(cases, depths=(2, 12)):
    """sha256 over each corpus case's answers from both oracles: whether
    the case is provable, and its solutions and limited flag in both
    commit modes, at each depth bound."""
    digest = hashlib.sha256()
    for i in range(cases):
        case = generate_case(i)
        for depth in depths:
            line = ["%d %r" % (depth, provable(case.program, case.goal, depth))]
            for mode in ("soft", "first"):
                solutions, limited = bruteforce_run(case.program, case.goal, depth, mode)
                line.append("%s %r %r" % (mode, limited, [s.render() for s in solutions]))
            digest.update(("%s\n" % " ".join(line)).encode())
    return digest.hexdigest()


def test_oracle_answers_are_pinned():
    # Both readings of choice come from one search; neither may drift.  At
    # depth 2 the bound cuts 137 of the 2,000 committed runs off, and 13
    # cases are provable at depth 12 only.  One of the 137 (case 171) is a
    # 'first' run whose bound hit sits under a '#' that an outer '#'
    # committed past.
    assert oracle_digest(1000) == (
        "18d18874d14beac70bbf553c4b5e6613d8b25185987513a0f0817d6da7f0ae37")


def test_oracles_reject_a_cut():
    # The oracles read the choice language; a prolog-dialect cut is no
    # call to an unknown predicate there, but an error.
    goal = parse_query("p, !.", dialect="prolog").goal
    with pytest.raises(MupError, match="cannot handle"):
        bruteforce_run(parse_program("p."), goal, 5)
    with pytest.raises(MupError, match="cannot handle"):
        provable(parse_program("p."), goal, 5)


def test_oracles_raise_a_mup_error_past_the_host_stack():
    # The oracles recurse on the host stack; a long body ends in the
    # error the engine gives, not a bare RecursionError.
    program = parse_program("p :- %s." % ", ".join(["true"] * 5000))
    for oracle in (provable, count_solutions_bruteforce):
        # Catching the RecursionError too keeps a failure quick to report.
        with pytest.raises((MupError, RecursionError)) as info:
            oracle(program, Const("p"), 5)
        assert isinstance(info.value, MupError), oracle.__name__
        assert "nested too deeply" in str(info.value)


def test_generated_cases_are_reproducible():
    a = generate_case(1234)
    b = generate_case(1234)
    assert a.describe() == b.describe()


def test_selftest_agrees_at_a_shallow_bound():
    # At depth 2 the bound cuts many runs off, so the engine and the
    # oracle must agree on which calls it cuts.
    assert selftest(seed=0, cases=1000, depth=2).ok


def test_selftest_small():
    report = selftest(seed=5, cases=60, depth=10)
    assert report.ok
    assert report.cases == 60


def test_selftest_compares_answers_in_order(monkeypatch):
    # '#' is order-sensitive, so answers that differ only in their order
    # are a mismatch: an engine that gave each query's answers reversed
    # must fail the selftest.
    solve_collect = Engine.solve_collect

    def reversed_answers(self, goal, answer_vars=None):
        result = solve_collect(self, goal, answer_vars)
        result.solutions.reverse()
        return result

    monkeypatch.setattr(Engine, "solve_collect", reversed_answers)
    assert not selftest(seed=0, cases=200, depth=12).ok


def test_selftest_reports_corpus_verbatim():
    for seed in (77, 50):  # seed 50 has two body-only variables in a clause
        case = generate_case(seed)
        text = case.describe()
        # The counterexample printout must itself be loadable program text,
        # and read back as the same clauses: body-only variables print apart.
        program_part = "\n".join(
            line for line in text.splitlines()
            if line and not line.startswith("%") and not line.startswith("?-")
        )
        reparsed = parse_program(program_part)
        assert len(reparsed.clauses) == len(case.program.clauses)
        for clause, back in zip(case.program.clauses, reparsed.clauses):
            assert clause_equal(clause, back), text


def test_oracle_module_has_no_engine_dependencies():
    # The reference semantics must stay independent: no unification, trail
    # or stream machinery from the engine side at module level (the
    # selftest driver below imports the engine lazily, which is its job).
    import ast
    import inspect

    import mup.oracle

    tree = ast.parse(inspect.getsource(mup.oracle))
    forbidden = ("mup.engine", "mup.kernel", "mup.unify", "_kernel")
    for node in tree.body:  # module level only
        if isinstance(node, ast.ImportFrom):
            assert not any(f in (node.module or "") for f in forbidden), (
                ast.dump(node)
            )
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not any(f in alias.name for f in forbidden)


def test_source_modules_use_every_name_they_import():
    # An imported name that its module never uses is dead; the names a
    # module lists in ``__all__`` count as used.
    import ast
    import pathlib

    import mup

    unused = []
    for path in sorted(pathlib.Path(mup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []
