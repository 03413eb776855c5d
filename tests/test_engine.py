import copy
import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

import mup.compiled
import mup.engine
from mup.engine import (
    ERRORED,
    EXHAUSTED,
    LIMITED,
    Engine,
    SolveConfig,
)
from mup import kernel
from mup.builtins import BUILTINS, IoPorts
from mup.compiled import match_head
from mup.errors import (
    LoadError, MupError, MupSyntaxError, UnknownPredicateError,
)
from mup.kernel import Bindings
from mup.oracle import selftest
from mup.syntax import (
    CUT,
    Clause,
    Program,
    TRUE,
    indicator,
    parse_program,
    parse_query,
    pretty,
)
from mup.terms import Compound, Const, Num, fresh_var

from conftest import collect, collect_goal


def renders(program_text, query_text, **cfg):
    return collect(program_text, query_text, **cfg)[0]


# ---------------------------------------------------------------------------
# Goal reduction


def test_true_goal_one_empty_solution():
    sols, outcome = collect("p.", "true.")
    assert sols == ["true"]
    assert outcome == EXHAUSTED


def test_max_single_solution(max_program):
    engine = Engine(max_program)
    result = engine.run_query("max(3,9,M).")
    assert [s.render() for s in result.solutions] == ["M = 9"]
    assert result.outcome == EXHAUSTED


def test_f_program():
    program = "f(X,Y) :- (X >= 2, Y = 3) # (X < 2, Y = 0)."
    assert renders(program, "f(1,Y).") == ["Y = 0"]
    assert renders(program, "f(5,Y).") == ["Y = 3"]


def test_member_choice_vs_classic(member_choice, member_classic):
    r = Engine(member_choice).run_query("member(X,[a,b,c]).")
    assert [s.render() for s in r.solutions] == ["X = a"]
    r = Engine(member_classic).run_query("member(X,[a,b,c]).")
    assert [s.render() for s in r.solutions] == ["X = a", "X = b", "X = c"]


def test_conjunction_left_bindings_flow_right():
    sols, _ = collect("q(a). r(a). r(b).", "q(X), r(X).")
    assert sols == ["X = a"]


def test_classical_or_enumerates_left_then_right():
    sols, _ = collect("p.", "(X = 1 ; X = 2) ; X = 3.")
    assert sols == ["X = 1", "X = 2", "X = 3"]


@pytest.mark.parametrize("left, right, occurs_check, expected", [
    ("X", "f(Y)", False, ["X = f(Y)"]),
    ("f(X, b)", "f(a, Y)", False, ["X = a, Y = b"]),
    ("a", "b", False, []),
    ("X", "f(Y)", True, ["X = f(Y)"]),
    ("X", "f(X)", True, []),
])
def test_unification_goals_take_one_path(left, right, occurs_check, expected):
    # A parsed X = Y, the quoted call '='(X, Y) and a programmatic =/2
    # term, as a goal and through a variable goal slot, are one call.
    g = fresh_var("G")
    program = Program([Clause(Compound("p", (g,)), g)])
    engine = Engine(program, SolveConfig(occurs_check=occurs_check))

    def answers(goal, answer_vars):
        result = engine.solve_collect(goal, answer_vars)
        assert result.outcome == EXHAUSTED
        return [s.render() for s in result.solutions]

    parsed = parse_query("%s = %s." % (left, right))
    assert type(parsed.goal) is Compound and parsed.goal.functor == "="
    assert answers(parsed.goal, parsed.answer_vars) == expected
    quoted = parse_query("'='(%s, %s)." % (left, right))
    assert answers(quoted.goal, quoted.answer_vars) == expected
    pair = parse_query("t(%s, %s)." % (left, right))
    call = Compound("=", pair.goal.args)
    assert answers(call, pair.answer_vars) == expected
    assert answers(Compound("p", (call,)), pair.answer_vars) == expected


def test_true_and_cut_goals_are_the_interned_atoms():
    assert parse_program("p :- true.").clauses[0].body is TRUE
    assert parse_program("p.").clauses[0].body is TRUE
    assert parse_query("true.").goal is TRUE
    assert parse_query("X = a, true.").goal.args[1] is TRUE
    cut = parse_program("p :- q, !.", dialect="prolog").clauses[0].body.args[1]
    assert cut is CUT
    # The atom '!' outside the prolog dialect is no cut, and prints quoted;
    # as a goal it is an error, as a bare ! is.
    atom = parse_query("X = '!'.").goal.args[1]
    assert atom is not CUT and pretty(atom) == "'!'"
    with pytest.raises(MupSyntaxError, match="cut is not part"):
        parse_query("'!'.")
    with pytest.raises(LoadError, match="!/0"):
        parse_program("'!'.")


# ---------------------------------------------------------------------------
# Backchaining


def test_backchain_unit_clause():
    program = parse_program("p.")
    assert len(list(Engine(program).solve(Const("p")))) == 1


def test_backchain_two_step():
    program = parse_program("q :- r. r.")
    assert len(list(Engine(program).solve(Const("q")))) == 1


def test_backchain_source_order():
    program = parse_program("p(a). p(b).")
    x = fresh_var("X")
    answers = Engine(program).solve(Compound("p", (x,)), [x])
    assert [s.assignments["X"] for s in answers] == [Const("a"), Const("b")]
    assert x.ref is None  # exhaustion undid the call's binding


@pytest.mark.parametrize("text, call, expected", [
    ("p(X, Y) :- Y = got(X).", "p(a, Y)", [Compound("got", (Const("a"),))]),
    ("r(a, 1). r(b, 2). r(c, 3).", "r(b, Y)", [Num(2)]),
    ("r(a, 1). r(X, 2). r(b, 3).", "r(b, Y)", [Num(2), Num(3)]),
])
def test_backchain_default_clauses(text, call, expected):
    # A one-clause predicate, and a first-argument key that selects one
    # clause of several (and two, across a variable-headed clause).
    atom = parse_query(call + ".").goal
    y = atom.args[1]
    answers = Engine(parse_program(text)).solve(atom, [y])
    assert [s.assignments["Y"] for s in answers] == expected
    assert y.ref is None


@pytest.mark.parametrize("q, call", [
    ("q(f(X, b)).", "q(f(Y, c))"),  # the call's Y is taken, not bound
    ("q(f(a, b)).", "q(f(Y, c))"),  # bound by the kernel's unify, then undone
    ("q(f(a, b), _).", "q(f(Y, c), z)"),  # bound by a generated matcher
    # The first-argument key selects one clause of two.
    ("q(g, 1). q(f(a, b), _).", "q(f(Y, c), z)"),
])
@pytest.mark.parametrize("mode", ["soft", "first"])
def test_a_lone_candidate_that_fails_leaves_no_binding(q, call, mode):
    # Y is older than the ';' choicepoint, so binding it in a head match
    # that then fails on b = c must be undone before the next disjunct.
    program = "t(R) :- (%s ; Y = d ; Y = e), R = Y.\n%s" % (call, q)
    assert renders(program, "t(R).", commit_mode=mode) == ["R = d", "R = e"]


def test_a_one_clause_predicate_under_a_depth_limit_reports_limited():
    sols, outcome = collect("p(X) :- p(f(X)).", "p(a).", depth_limit=20)
    assert sols == [] and outcome == LIMITED
    sols, outcome = collect(
        "p(X) :- p(f(X)). t(R) :- (p(a) # R = no).", "t(R).", depth_limit=20
    )
    assert sols == [] and outcome == LIMITED


# ---------------------------------------------------------------------------
# Committed choice


def test_solve_choice_son_soft(son_program):
    # The two disjuncts of the son body, instantiated for tom.
    y = fresh_var("Y")
    tom = Const("tom")
    left = Compound(",", (Compound("male", (tom,)), Compound("father", (y, tom))))
    right = Compound(",", (Compound("female", (tom,)), Compound("mother", (y, tom))))
    answers = Engine(son_program).solve(Compound("#", (left, right)), [y])
    assert [s.assignments["Y"] for s in answers] == [Const("bob"), Const("jim")]


def test_solve_choice_left_fails_right_chosen():
    program = parse_program("p.")
    x = fresh_var("X")
    goal = Compound("#", (Const("fail"), Compound("=", (x, Num(1)))))
    answers = Engine(program).solve(goal, [x])
    assert [s.assignments["X"] for s in answers] == [Num(1)]


def test_solve_choice_first_mode(son_program):
    y = fresh_var("Y")
    tom = Const("tom")
    left = Compound(",", (Compound("male", (tom,)), Compound("father", (y, tom))))
    right = Compound(",", (Compound("female", (tom,)), Compound("mother", (y, tom))))
    engine = Engine(son_program, SolveConfig(commit_mode="first"))
    answers = engine.solve(Compound("#", (left, right)), [y])
    assert [s.assignments["Y"] for s in answers] == [Const("bob")]


def test_choice_discard_trace_once(son_program):
    events = []
    engine = Engine(son_program, trace=events.append)
    sols = list(engine.solve(parse_query("son(tom,Y).").goal))
    assert len(sols) == 2
    discarded = [e for e in events if e.kind == "choice_discarded"]
    assert len(discarded) == 1
    assert "female" in discarded[0].payload
    taken = [e for e in events if e.kind == "choice_taken"]
    assert len(taken) == 1 and "male" in taken[0].payload
    # The discarded branch was never attempted: female/1 never backchained.
    attempted = [
        e for e in events
        if e.kind == "backchain_enter" and "female" in e.payload
    ]
    assert attempted == []


def test_choice_right_branch_trace(son_program):
    events = []
    engine = Engine(son_program, trace=events.append)
    sols = list(engine.solve(parse_query("son(ann,Y).").goal))
    assert [s.render() for s in sols] == ["Y = sue"]
    discarded = [e for e in events if e.kind == "choice_discarded"]
    assert len(discarded) == 1
    assert "male" in discarded[0].payload  # the left branch was the loser


def test_choice_does_not_merge_disjuncts():
    # Every solution comes from exactly one disjunct.
    program = "p(X) :- (X = a # X = b)."
    assert renders(program, "p(X).") == ["X = a"]
    program = "p(X) :- (fail # X = b)."
    assert renders(program, "p(X).") == ["X = b"]


def test_choice_commit_keeps_inner_choicepoints_soft():
    program = "p(X) :- ((X = 1 ; X = 2) # X = 3)."
    assert renders(program, "p(X).") == ["X = 1", "X = 2"]


def test_choice_first_mode_truncates_inner():
    program = "p(X) :- ((X = 1 ; X = 2) # X = 3)."
    assert renders(program, "p(X).", commit_mode="first") == ["X = 1"]


def test_commit_is_local_to_the_choice():
    # Committing inside the clause must not prune alternatives outside it.
    program = "p(X) :- (X = 1 # X = 2). p(3)."
    assert renders(program, "p(X).") == ["X = 1", "X = 3"]


def test_nested_choice():
    program = "p(X) :- ((fail # X = 1) # X = 2)."
    assert renders(program, "p(X).") == ["X = 1"]
    program = "p(X) :- ((fail # fail) # X = 2)."
    assert renders(program, "p(X).") == ["X = 2"]


def test_choice_exclusivity_direct():
    program_text = "q(a). q(b). r(c)."
    program = parse_program(program_text)
    x = fresh_var("X")
    g0 = Compound("q", (x,))
    g1 = Compound("r", (x,))
    for mode in ("soft", "first"):
        whole = collect_goal(
            parse_program(program_text), Compound("#", (g0, g1)), commit_mode=mode
        )
        left = collect_goal(parse_program(program_text), g0, commit_mode=mode)
        expected = left.solutions if mode == "soft" else left.solutions[:1]
        assert whole.solutions == expected


# ---------------------------------------------------------------------------
# Depth limits and outcomes


def test_loop_program_reports_limited():
    sols, outcome = collect("p :- p.", "p.", depth_limit=100)
    assert sols == []
    assert outcome == LIMITED


def test_depth_limit_does_not_fall_through_choice():
    # Left disjunct diverges: its failure is not finite, so the right
    # disjunct must stay untried and the run reports 'limited'.
    sols, outcome = collect(
        "loop :- loop. p(X) :- (loop # X = ok).", "p(X).", depth_limit=50
    )
    assert sols == []
    assert outcome == LIMITED


def test_depth_limit_classical_or_does_fall_through():
    sols, outcome = collect(
        "loop :- loop. p(X) :- (loop ; X = ok).", "p(X).", depth_limit=50
    )
    assert [s for s in sols] == ["X = ok"]
    assert outcome == LIMITED


def test_finite_failure_still_falls_through_under_limit():
    sols, outcome = collect(
        "dead :- fail. p(X) :- (dead # X = ok).", "p(X).", depth_limit=50
    )
    assert sols == ["X = ok"]
    assert outcome == EXHAUSTED


def test_max_solutions_truncation():
    sols, outcome = collect("p(a). p(b). p(c).", "p(X).", max_solutions=2)
    assert sols == ["X = a", "X = b"]
    assert outcome == LIMITED
    sols, outcome = collect("p(a). p(b).", "p(X).", max_solutions=2)
    assert outcome == EXHAUSTED


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_a_stream_stops_after_max_solutions(limit):
    query = parse_query("n(X).")
    cfg = SolveConfig(max_solutions=limit)
    answers = Engine(parse_program("n(1). n(2). n(3)."), cfg).solve(query.goal)
    assert answers.outcome is None
    assert [s.render() for s in answers] == ["X = 1", "X = 2", "X = 3"][:limit]
    assert query.answer_vars[0].ref is None  # the run's bindings are undone
    # Past the limit lay another answer, or none.
    assert answers.outcome == (LIMITED if limit < 3 else EXHAUSTED)


def test_a_stream_reports_a_search_the_depth_limit_cut_off():
    engine = Engine(parse_program("q(X) :- q(X)."), SolveConfig(depth_limit=5))
    answers = engine.solve(parse_query("q(1).").goal)
    assert answers.outcome is None
    assert list(answers) == []
    assert answers.outcome == LIMITED and answers.error is None
    # An ended stream stays ended, and its outcome does not change.
    with pytest.raises(StopIteration):
        next(answers)
    assert answers.outcome == LIMITED


def test_a_cyclic_answer_ends_the_stream_errored():
    query = parse_query("X = f(X), Y = f(Y), X = Y.")
    answers = Engine(parse_program("p.")).solve(query.goal, query.answer_vars)
    with pytest.raises(MupError, match="cyclic") as info:
        next(answers)
    assert answers.outcome == ERRORED and answers.error is info.value
    assert all(var.ref is None for var in query.answer_vars)
    with pytest.raises(StopIteration):
        next(answers)
    assert answers.outcome == ERRORED


def test_a_host_stack_overflow_ends_the_stream_errored():
    # The run turns a RecursionError (here raised by the trace hook) into
    # a MupError in its handler, so it must set the stream's ending there.
    def hook(event):
        raise RecursionError

    query = parse_query("p(X).")
    answers = Engine(parse_program("p(a)."), trace=hook).solve(query.goal)
    with pytest.raises(MupError, match="host stack") as info:
        next(answers)
    assert answers.outcome == ERRORED and answers.error is info.value


def test_unknown_predicate_error_and_fail():
    program = parse_program("p.")
    engine = Engine(program)
    result = engine.run_query("nosuch.")
    assert result.outcome == "errored"
    assert isinstance(result.error, UnknownPredicateError)

    engine = Engine(program, SolveConfig(unknown_predicate="fail"))
    result = engine.run_query("nosuch.")
    assert result.solutions == [] and result.outcome == EXHAUSTED


# ---------------------------------------------------------------------------
# Stream behaviour


def test_stream_is_lazy():
    program = parse_program("p(a). p(b). p(c).")
    events = []
    engine = Engine(program, trace=events.append)
    stream = engine.solve(parse_query("p(X).").goal)
    assert events == []  # nothing happens before the first pull
    next(stream)
    work_after_first = len(events)
    assert work_after_first > 0
    assert len(events) == work_after_first  # no work between pulls
    next(stream)
    assert len(events) > work_after_first


def test_stream_exhaustion_is_repeatable():
    program = parse_program("p(a).")
    stream = Engine(program).solve(parse_query("p(X).").goal)
    assert len(list(stream)) == 1
    for _ in range(3):
        with pytest.raises(StopIteration):
            next(stream)
        assert stream.outcome == EXHAUSTED


IN_PLACE_PROGRAM = "p(1). p(2). p(3). q(N, f(N, _))."


def _end_a_stream(how, program, query):
    """Solve ``query`` in place and end the run the way ``how`` names."""
    engine = Engine(program)
    if how == "truncated":
        engine = Engine(program, SolveConfig(max_solutions=1))
    stream = engine.solve(query.goal, query.answer_vars)
    assert stream.outcome is None
    if how == "exhausted":
        assert len(list(stream)) == 3
        assert stream.outcome == EXHAUSTED
    elif how in ("closed", "dropped"):
        assert next(stream).render() == "X = 1, Y = f(1, _G0)"
        # The first answer's bindings are in the query's own variables.
        assert query.answer_vars[0].ref == Num(1)
        if how == "closed":
            stream.close()
            assert stream.outcome is None  # ended early, not by the search
            with pytest.raises(StopIteration):
                next(stream)
        else:
            del stream
    elif how == "truncated":
        assert len(list(stream)) == 1
        assert stream.outcome == LIMITED
        assert engine.solve_collect(query.goal, query.answer_vars).outcome == LIMITED
    else:  # an error after a binding
        with pytest.raises(UnknownPredicateError):
            list(stream)
        assert stream.outcome == ERRORED
        assert isinstance(stream.error, UnknownPredicateError)
        assert engine.solve_collect(query.goal, query.answer_vars).outcome == ERRORED


@pytest.mark.parametrize("how", ["exhausted", "closed", "dropped", "truncated", "error"])
def test_no_binding_outlives_a_stream(how):
    program = parse_program(IN_PLACE_PROGRAM)
    text = "X = a, nosuch(X)." if how == "error" else "p(X), q(X, Y)."
    expected = Engine(program).run_query(text)  # on a query of its own
    query = parse_query(text)
    _end_a_stream(how, program, query)
    # The answer variables are all of the query's variables, and
    # free_goal_vars would skip a bound one.
    assert all(var.ref is None for var in query.answer_vars)
    again = Engine(program).solve_collect(query.goal, query.answer_vars)
    assert again.outcome == expected.outcome
    assert [s.render() for s in again.solutions] == [
        s.render() for s in expected.solutions
    ]
    assert all(var.ref is None for var in query.answer_vars)


def test_determinism_same_sequences_and_traces():
    program_text = """
    p(X) :- (q(X) # r(X)).
    q(a). q(b). r(c).
    """
    runs = []
    for _ in range(2):
        events = []
        program = parse_program(program_text)
        engine = Engine(program, trace=events.append)
        sols = [s.render() for s in engine.solve(parse_query("p(X).").goal)]
        runs.append((sols, [(e.kind, e.depth, e.payload) for e in events]))
    assert runs[0] == runs[1]


def test_solution_well_formedness(member_classic):
    # Substituting a solution back into the query makes it provable.
    engine = Engine(member_classic)
    for sol in engine.solve(parse_query("member(X,[a,b,c]).").goal):
        term = sol.assignments["X"]
        check = Engine(member_classic).solve_collect(
            Compound("member", (term, _abc())), answer_vars=[]
        )
        assert len(check.solutions) >= 1


def _abc():
    from mup.terms import mk_list

    return mk_list([Const("a"), Const("b"), Const("c")])


def test_occurs_check_flag_end_to_end():
    sols, _ = collect("p(X) :- X = f(X).", "p(Y).", occurs_check=True)
    assert sols == []


def test_trace_depth_increases_with_backchaining():
    events = []
    program = parse_program("a :- b. b :- c. c.")
    engine = Engine(program, trace=events.append)
    list(engine.solve(parse_query("a.").goal))
    enters = [e for e in events if e.kind == "backchain_enter"]
    assert [e.depth for e in enters] == [0, 1, 2]
    exits = [e for e in events if e.kind == "backchain_exit"]
    assert [e.depth for e in exits] == [2, 1, 0]


def test_conjunction_soundness_random():
    # A solution of (G0, G1) must make each conjunct provable on its own.
    import random as _random

    from mup.oracle import generate_program, generate_query
    from mup.syntax import answer_vars_of, subst_goal

    rng = _random.Random(6021023)
    checked = 0
    for _ in range(80):
        program = generate_program(rng)
        goal = generate_query(rng)
        if type(goal) is not Compound or goal.functor != ",":
            continue
        cfg = SolveConfig(depth_limit=10, unknown_predicate="fail")
        avs = answer_vars_of(goal)
        result = Engine(program, cfg).solve_collect(goal, avs)
        for sol in result.solutions:
            mapping = {
                v.id: sol.assignments[v.name]
                for v in avs
                if v.name in sol.assignments
            }
            for part in (goal.args[0], goal.args[1]):
                bound = subst_goal(part, mapping)
                sub = Engine(program, cfg).solve_collect(bound, [])
                assert sub.solutions, (part, sol.render())
            checked += 1
    assert checked > 0


def test_deep_derivation_does_not_exhaust_host_stack():
    # 20000 backchaining steps: the machine must run in constant host
    # stack (explicit continuation + choicepoint stack).
    program = parse_program("count(z). count(s(X)) :- count(X).")
    term = Const("z")
    for _ in range(20000):
        term = Compound("s", (term,))
    result = Engine(program).solve_collect(Compound("count", (term,)), [])
    assert len(result.solutions) == 1
    assert result.outcome == "exhausted"


def test_long_query_walkers_need_no_host_stack():
    # solve() without answer variables collects them with free_goal_vars;
    # it, subst_goal and pretty_goal walk a 3,000-goal query iteratively.
    from mup.syntax import free_goal_vars, pretty_goal, subst_goal

    text = ", ".join("X%d = %d" % (i, i) for i in range(3000))
    goal = parse_query(text + ".").goal
    avs = free_goal_vars(goal)
    assert [v.name for v in avs] == ["X%d" % i for i in range(3000)]
    solutions = list(Engine(parse_program("")).solve(goal))
    assert len(solutions) == 1
    assert solutions[0].render().endswith(", X2999 = 2999")
    out = subst_goal(goal, {avs[0].id: Num(7)})
    assert out.args[1] is goal.args[1]  # the unchanged rest is shared
    assert pretty_goal(out) == "7 = 0, " + text.split(", ", 1)[1]
    assert pretty_goal(goal) == text


# ---------------------------------------------------------------------------
# Pinned machine behaviour: exact trace and Prolog cut

GOLDEN_PROGRAM = """
q(a).
q(b).
r(a, 1).
r(a, 2).
loop :- loop.
c(X, R) :- (q(X), X = b, R = l) # R = r.
d(S) :- (S = x, fail) # S = y.
t(X, R, S) :- q(b), c(X, R), d(S), (loop ; true).
"""

# Covers a call the first-argument index sends straight to its clause
# (q(b) never tries q(a)), a retry of the remaining clauses (q(X) after
# X = b fails), both sides of '#', a ';' and a depth-limit hit (loop at
# depth 4).
GOLDEN_TRACE = [
    ("reduce", 0, "t(X, R, S)"),
    ("backchain_enter", 0, "t(X, R, S)"),
    ("unify_ok", 0, "t(X, R, S) ~ t(X, R, S)"),
    ("reduce", 1, "q(b), c(X, R), d(S), (loop ; true)"),
    ("reduce", 1, "q(b)"),
    ("backchain_enter", 1, "q(b)"),
    ("unify_ok", 1, "q(b) ~ q(b)"),
    ("reduce", 2, "true"),
    ("backchain_exit", 1, "q(b)"),
    ("reduce", 1, "c(X, R), d(S), (loop ; true)"),
    ("reduce", 1, "c(X, R)"),
    ("backchain_enter", 1, "c(X, R)"),
    ("unify_ok", 1, "c(X, R) ~ c(X, R)"),
    ("reduce", 2, "(q(X), X = b, R = l # R = r)"),
    ("reduce", 2, "q(X), X = b, R = l"),
    ("reduce", 2, "q(X)"),
    ("backchain_enter", 2, "q(X)"),
    ("unify_ok", 2, "q(a) ~ q(X)"),
    ("reduce", 3, "true"),
    ("backchain_exit", 2, "q(X)"),
    ("reduce", 2, "X = b, R = l"),
    ("reduce", 2, "X = b"),
    ("unify_ok", 2, "q(b) ~ q(X)"),
    ("reduce", 3, "true"),
    ("backchain_exit", 2, "q(X)"),
    ("reduce", 2, "X = b, R = l"),
    ("reduce", 2, "X = b"),
    ("reduce", 2, "R = l"),
    ("choice_taken", 2, "left q(X), X = b, R = l"),
    ("choice_discarded", 2, "right R = r"),
    ("backchain_exit", 1, "c(X, R)"),
    ("reduce", 1, "d(S), (loop ; true)"),
    ("reduce", 1, "d(S)"),
    ("backchain_enter", 1, "d(S)"),
    ("unify_ok", 1, "d(S) ~ d(S)"),
    ("reduce", 2, "(S = x, fail # S = y)"),
    ("reduce", 2, "S = x, fail"),
    ("reduce", 2, "S = x"),
    ("reduce", 2, "fail"),
    ("choice_taken", 2, "right S = y"),
    ("choice_discarded", 2, "left S = x, fail"),
    ("reduce", 2, "S = y"),
    ("backchain_exit", 1, "d(S)"),
    ("reduce", 1, "(loop ; true)"),
    ("reduce", 1, "loop"),
    ("backchain_enter", 1, "loop"),
    ("unify_ok", 1, "loop ~ loop"),
    ("reduce", 2, "loop"),
    ("backchain_enter", 2, "loop"),
    ("unify_ok", 2, "loop ~ loop"),
    ("reduce", 3, "loop"),
    ("backchain_enter", 3, "loop"),
    ("unify_ok", 3, "loop ~ loop"),
    ("reduce", 4, "loop"),
    ("reduce", 1, "true"),
    ("backchain_exit", 0, "t(X, R, S)"),
]


# A head-unify failure before a match that the index cannot skip: both
# r/2 clauses share the first argument and differ in the second.
GOLDEN_MISMATCH_TRACE = [
    ("reduce", 0, "r(a, 2)"),
    ("backchain_enter", 0, "r(a, 2)"),
    ("unify_fail", 0, "r(a, 1) ~ r(a, 2)"),
    ("unify_ok", 0, "r(a, 2) ~ r(a, 2)"),
    ("reduce", 1, "true"),
    ("backchain_exit", 0, "r(a, 2)"),
]


def golden_events(query):
    events = []
    engine = Engine(
        parse_program(GOLDEN_PROGRAM),
        SolveConfig(depth_limit=4),
        trace=events.append,
    )
    result = engine.run_query(query)
    return result, [(e.kind, e.depth, e.payload) for e in events]


def test_golden_trace():
    result, events = golden_events("t(X, R, S).")
    assert [s.render() for s in result.solutions] == ["X = b, R = l, S = y"]
    assert result.outcome == LIMITED
    assert events == GOLDEN_TRACE


def test_golden_trace_head_mismatch():
    result, events = golden_events("r(a, 2).")
    assert [s.render() for s in result.solutions] == ["true"]
    assert result.outcome == "exhausted"
    assert events == GOLDEN_MISMATCH_TRACE


# ---------------------------------------------------------------------------
# The predicate lookup alone matches a call to its clauses

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
SAMPLE_QUERIES = {
    "f.mpl": ["f(1,Y).", "f(5,Y)."],
    "max.mpl": ["max(3,9,M).", "max(9,3,M)."],
    "member_choice.mpl": ["member(X,[a,b,a])."],
    "member_classic.mpl": ["member(X,[a,b,a])."],
    "rprime.mpl": ["rprime."],
    "son.mpl": ["son(tom,Y).", "son(ann,Y).", "son(X,Y)."],
}


def test_head_matching_only_meets_calls_of_the_clause_predicate(monkeypatch):
    # A head matcher does not test the call's name and arity: the engine
    # must only hand it calls of the predicate it looked up.
    tries = {}

    def checked(clause, goal, trail, occurs_check):
        assert indicator(goal) == indicator(clause.head), (pretty(clause.head), pretty(goal))
        tries[label] = tries.get(label, 0) + 1
        return match_head(clause, goal, trail, occurs_check)

    monkeypatch.setattr(mup.engine, "_kunify", checked)
    for name, queries in SAMPLE_QUERIES.items():
        label = name
        program = parse_program((PROGRAMS / name).read_text(encoding="utf-8"))
        for query in queries:
            io = IoPorts.scripted(["7."])
            assert Engine(program, io=io).run_query(query).error is None
    label = "golden"
    for query in ("t(X, R, S).", "r(a, 2).", "r(X, Y).", "c(X, R)."):
        golden_events(query)
    label = "p/1 and p/2"
    program = parse_program("p(a). p(X, Y) :- p(X), p(Y). p(b). q :- p(a, b), p(c).")
    for query in ("p(X).", "p(X, Y).", "p(b, a).", "q.", "p(X), p(X, X)."):
        Engine(program).run_query(query)
    label = "selftest"
    assert selftest(seed=0, cases=300, depth=12).ok
    assert sorted(tries) == sorted([*SAMPLE_QUERIES, "golden", "p/1 and p/2", "selftest"])
    assert not any("goal.functor" in source or "len(goal.args)" in source
                   for source in mup.compiled.CODE)


# ---------------------------------------------------------------------------
# Guards: a '#' whose left side starts with arithmetic comparisons

GUARD_PROGRAM = """
ne(A, B) :- (A < B) # (A > B).
c(N) :- (N =< 0) # (M is N-1, c(M)).
in(X) :- (X >= 0, X =< 9) # fail.
max(X, Y, M) :- (X >= Y, M = X) # (X < Y, M = Y).
f(X, Y) :- (X >= 2, Y = 3) # (X < 2, Y = 0).
m(1).
m(2).
p(X, Y) :- (X > 0, m(Y)) # Y = none.
loop :- loop.
h(X, R) :- (X > 0, loop) # R = no.
nest(X, R) :- ((X > 0, X < 5), R = a) # R = b.
g(D) :- ne(2, 1), c(1), in(5), f(5, D), (h(1, _) ; true).
"""

# g(D) takes the right side of a single test (ne), runs a countdown step
# each way (c), passes a two-test guard (in), passes a test before a
# binding (f) and a test before a call the depth limit cuts off (h), which
# must not fall through to R = no.
GOLDEN_GUARD_TRACE = [
    ("reduce", 0, "g(D)"),
    ("backchain_enter", 0, "g(D)"),
    ("unify_ok", 0, "g(D) ~ g(D)"),
    ("reduce", 1, "ne(2, 1), c(1), in(5), f(5, D), (h(1, _) ; true)"),
    ("reduce", 1, "ne(2, 1)"),
    ("backchain_enter", 1, "ne(2, 1)"),
    ("unify_ok", 1, "ne(A, B) ~ ne(2, 1)"),
    ("reduce", 2, "(2 < 1 # 2 > 1)"),
    ("reduce", 2, "2 < 1"),
    ("choice_taken", 2, "right 2 > 1"),
    ("choice_discarded", 2, "left 2 < 1"),
    ("reduce", 2, "2 > 1"),
    ("backchain_exit", 1, "ne(2, 1)"),
    ("reduce", 1, "c(1), in(5), f(5, D), (h(1, _) ; true)"),
    ("reduce", 1, "c(1)"),
    ("backchain_enter", 1, "c(1)"),
    ("unify_ok", 1, "c(N) ~ c(1)"),
    ("reduce", 2, "(1 =< 0 # M is 1 - 1, c(M))"),
    ("reduce", 2, "1 =< 0"),
    ("choice_taken", 2, "right M is 1 - 1, c(M)"),
    ("choice_discarded", 2, "left 1 =< 0"),
    ("reduce", 2, "M is 1 - 1, c(M)"),
    ("reduce", 2, "M is 1 - 1"),
    ("reduce", 2, "c(M)"),
    ("backchain_enter", 2, "c(M)"),
    ("unify_ok", 2, "c(N) ~ c(M)"),
    ("reduce", 3, "(M =< 0 # M is M - 1, c(M))"),
    ("reduce", 3, "M =< 0"),
    ("choice_taken", 3, "left M =< 0"),
    ("choice_discarded", 3, "right M is M - 1, c(M)"),
    ("backchain_exit", 2, "c(M)"),
    ("backchain_exit", 1, "c(1)"),
    ("reduce", 1, "in(5), f(5, D), (h(1, _) ; true)"),
    ("reduce", 1, "in(5)"),
    ("backchain_enter", 1, "in(5)"),
    ("unify_ok", 1, "in(X) ~ in(5)"),
    ("reduce", 2, "(5 >= 0, 5 =< 9 # fail)"),
    ("reduce", 2, "5 >= 0, 5 =< 9"),
    ("reduce", 2, "5 >= 0"),
    ("reduce", 2, "5 =< 9"),
    ("choice_taken", 2, "left 5 >= 0, 5 =< 9"),
    ("choice_discarded", 2, "right fail"),
    ("backchain_exit", 1, "in(5)"),
    ("reduce", 1, "f(5, D), (h(1, _) ; true)"),
    ("reduce", 1, "f(5, D)"),
    ("backchain_enter", 1, "f(5, D)"),
    ("unify_ok", 1, "f(X, Y) ~ f(5, D)"),
    ("reduce", 2, "(5 >= 2, D = 3 # 5 < 2, D = 0)"),
    ("reduce", 2, "5 >= 2, D = 3"),
    ("reduce", 2, "5 >= 2"),
    ("reduce", 2, "D = 3"),
    ("choice_taken", 2, "left 5 >= 2, D = 3"),
    ("choice_discarded", 2, "right 5 < 2, D = 0"),
    ("backchain_exit", 1, "f(5, D)"),
    ("reduce", 1, "(h(1, _) ; true)"),
    ("reduce", 1, "h(1, _)"),
    ("backchain_enter", 1, "h(1, _)"),
    ("unify_ok", 1, "h(X, R) ~ h(1, _)"),
    ("reduce", 2, "(1 > 0, loop # _ = no)"),
    ("reduce", 2, "1 > 0, loop"),
    ("reduce", 2, "1 > 0"),
    ("reduce", 2, "loop"),
    ("backchain_enter", 2, "loop"),
    ("unify_ok", 2, "loop ~ loop"),
    ("reduce", 3, "loop"),
    ("backchain_enter", 3, "loop"),
    ("unify_ok", 3, "loop ~ loop"),
    ("reduce", 4, "loop"),
    ("backchain_enter", 4, "loop"),
    ("unify_ok", 4, "loop ~ loop"),
    ("reduce", 5, "loop"),
    ("backchain_enter", 5, "loop"),
    ("unify_ok", 5, "loop ~ loop"),
    ("reduce", 6, "loop"),
    ("reduce", 1, "true"),
    ("backchain_exit", 0, "g(D)"),
]

# Each query's outcome and answers, or its error, the same in both commit
# modes except where FIRST_MODE_GUARD_ANSWERS says otherwise.
GUARD_CASES = [
    ("ne(1, 2).", "exhausted: true"),
    ("ne(2, 1).", "exhausted: true"),
    ("ne(2, 2).", "exhausted:"),
    ("c(2).", "exhausted: true"),
    ("c(9).", "limited:"),
    ("in(5).", "exhausted: true"),
    ("in(-1).", "exhausted:"),
    ("in(12).", "exhausted:"),
    ("max(3, 9, M).", "exhausted: M = 9"),
    ("max(9, 3, M).", "exhausted: M = 9"),
    ("max(4, 4, M).", "exhausted: M = 4"),
    ("f(1, Y).", "exhausted: Y = 0"),
    ("f(5, Y).", "exhausted: Y = 3"),
    ("f(5, 0).", "exhausted:"),
    ("p(1, Y).", "exhausted: Y = 1 | Y = 2"),
    ("p(0, Y).", "exhausted: Y = none"),
    ("h(1, R).", "limited:"),
    ("h(0, R).", "exhausted: R = no"),
    ("nest(3, R).", "exhausted: R = a"),
    ("nest(7, R).", "exhausted: R = b"),
    ("ne(X, 1).", "errored: arguments of arithmetic are not sufficiently instantiated"),
    ("in(X).", "errored: arguments of arithmetic are not sufficiently instantiated"),
    ("max(X, 1, M).", "errored: arguments of arithmetic are not sufficiently instantiated"),
    ("f(1 + a, Y).", "errored: not an arithmetic expression: a"),
    ("(1 < 2) # fail.", "exhausted: true"),
    ("X = 3, ((X < 2) # true).", "exhausted: X = 3"),
    ("g(D).", "limited: D = 3"),
]
FIRST_MODE_GUARD_ANSWERS = {"p(1, Y).": "exhausted: Y = 1"}


def guard_run(query, mode):
    """A one-line summary of the query's result, and its trace events."""
    events = []
    engine = Engine(
        parse_program(GUARD_PROGRAM),
        SolveConfig(commit_mode=mode, depth_limit=6),
        trace=events.append,
    )
    result = engine.run_query(query)
    if result.error is not None:
        summary = "%s: %s" % (result.outcome, result.error)
    else:
        answers = " | ".join(s.render() for s in result.solutions)
        summary = ("%s: %s" % (result.outcome, answers)).rstrip()
    return summary, [(e.kind, e.depth, e.payload) for e in events]


@pytest.mark.parametrize("mode", ["soft", "first"])
def test_golden_guard_trace(mode):
    summary, events = guard_run("g(D).", mode)
    assert summary == "limited: D = 3"
    assert events == GOLDEN_GUARD_TRACE


@pytest.mark.parametrize("mode", ["soft", "first"])
@pytest.mark.parametrize("query, expected", GUARD_CASES)
def test_guard_answers(query, expected, mode):
    if mode == "first":
        expected = FIRST_MODE_GUARD_ANSWERS.get(query, expected)
    assert guard_run(query, mode)[0] == expected


def test_guard_traces_are_pinned():
    # Deciding a guard in place may not change a trace event: the digest
    # covers every event of every guard case in both commit modes.
    digest = hashlib.sha256()
    for query, _ in GUARD_CASES:
        for mode in ("soft", "first"):
            summary, events = guard_run(query, mode)
            digest.update(("%s %s %s\n" % (query, mode, summary)).encode())
            for event in events:
                digest.update(("%d %s %s\n" % (event[1], event[0], event[2])).encode())
    assert digest.hexdigest() == (
        "c0d7690365051019b9ae008bd317dfa4c35fe88e731b7a4627fd8baf4a46243e")


@pytest.mark.parametrize(
    "query, expected",
    [
        ("p(1,Y).", ["Y = a", "Y = b"]),
        ("p(2,Y).", ["Y = b"]),
        ("p(X,Y).", ["X = 1, Y = a", "Y = b"]),
        # A cut in the query itself prunes every alternative of the query.
        ("p(X, Y), !.", ["X = 1, Y = a"]),
        ("!.", ["true"]),
        ("(p(X, Y), ! ; X = 9).", ["X = 1, Y = a"]),
        ("p(X, Y), (! ; true).", ["X = 1, Y = a"]),
        ("p(X, Y), !, X = 2.", []),
        ("(!, fail ; true).", []),
    ],
)
def test_prolog_cut_prunes_later_clauses(query, expected):
    program = parse_program("p(1,a). p(X,b) :- !. p(X,c).", dialect="prolog")
    goal = parse_query(query, dialect="prolog")
    sols = Engine(program).solve(goal.goal, goal.answer_vars)
    assert [s.render() for s in sols] == expected


def test_a_copied_prolog_goal_keeps_its_cut():
    program = parse_program("p(1). p(2).", dialect="prolog")
    query = parse_query("p(X), !.", dialect="prolog")
    goal, answer_vars = copy.deepcopy((query.goal, query.answer_vars))
    assert goal.args[1] is CUT
    result = Engine(program).solve_collect(goal, answer_vars)
    assert result.outcome == EXHAUSTED
    assert [s.render() for s in result.solutions] == ["X = 1"]


# ---------------------------------------------------------------------------
# Conditional trailing

COUNTDOWN = "c(N) :- (N =< 0) # (M is N-1, c(M))."


def test_deterministic_countdown_keeps_the_trail_short(monkeypatch):
    # Each step's variables are younger than every choicepoint left, so
    # their bindings are not trailed; every trace event samples the trail
    # of the store the run makes.
    stores = []

    def recording_store():
        stores.append(Bindings())
        return stores[-1]

    monkeypatch.setattr("mup.engine.Bindings", recording_store)
    sizes = []
    engine = Engine(parse_program(COUNTDOWN), trace=lambda e: sizes.append(len(stores[-1])))
    assert len(list(engine.solve(Compound("c", (Num(2000),))))) == 1
    assert len(sizes) > 2000 * 5
    assert max(sizes) <= 2


def test_a_guard_calls_its_comparison_through_builtins(monkeypatch):
    # The benchmark counts built-in calls by wrapping the entries of
    # BUILTINS, so a guard decided in place must look its test up there.
    key = ("=<", 2)
    entry = BUILTINS[key]
    calls = []

    def counting(ctx, args):
        calls.append(args)
        return entry.fn(ctx, args)

    with monkeypatch.context() as patch:
        patch.setitem(BUILTINS, key, dataclasses.replace(entry, fn=counting))
        assert renders(COUNTDOWN, "c(1000).") == ["true"]
    assert len(calls) == 1001
    assert BUILTINS[key] is entry


@pytest.mark.parametrize("call, facts", [
    ("p(k, c, A)", "p(k, b, a). p(k, c, z)."),  # heads unified by the kernel
    ("p(k, c, A, _)", "p(k, b, a, _). p(k, c, z, _)."),  # generated matchers
])
def test_failed_head_match_is_undone_for_young_variables(call, facts):
    # t's body variable A is younger than every choicepoint.  The index
    # keeps both p clauses.  The first binds A (the last argument is
    # matched first), then fails on b = c; the second must find A unbound.
    program = "t(R) :- %s, R = A.\n%s" % (call, facts)
    for mode in ("soft", "first"):
        assert renders(program, "t(R).", commit_mode=mode) == ["R = z"]


@pytest.mark.parametrize("program, expected", [
    ("p(A, A, x). p(B, C, y).", ["true"]),  # tried in the candidate loop
    ("p(A, A, x).", []),  # a lone candidate
])
def test_the_engine_undoes_a_failed_head_match_before_its_trace(program, expected):
    # The head binds V to U, then fails on x = y and leaves that binding:
    # the engine undoes it before the trace event and the next candidate.
    query = parse_query("p(U, V, y).")
    v = query.goal.args[1]
    fails = []

    def hook(event):
        if event.kind == "unify_fail":
            fails.append((event.payload, v.ref))

    answers = Engine(parse_program(program), trace=hook).solve(query.goal, query.answer_vars)
    assert [s.render() for s in answers] == expected
    assert fails == [("p(A, A, x) ~ p(U, V, y)", None)]


@pytest.mark.parametrize("program, dialect", [
    ("u(R) :- (A = 1, fail # A = 2), R = A.", "choice"),
    ("u(R) :- (A = 1, fail ; A = 2), R = A.", "choice"),
    ("u(R) :- (A = 1, fail *-> true ; A = 2), R = A.", "prolog"),
    ("u(R) :- v(A), R = A.\nv(A) :- A = 1, fail.\nv(2).", "choice"),
    ("u(R) :- (v, A = 1, fail ; A = 2), R = A.\nv :- w, !.\nw.\nw.", "prolog"),
])
def test_alternative_finds_older_variables_unbound(program, dialect):
    # A is younger than every choicepoint before the alternative is pushed,
    # but older than that one, so binding it in the first branch is trailed.
    query = parse_query("u(R).", dialect=dialect)
    engine = Engine(parse_program(program, dialect=dialect))
    answers = engine.solve(query.goal, query.answer_vars)
    assert [s.render() for s in answers] == ["R = 2"]


def test_soft_commit_keeps_the_chosen_side_alternatives():
    program = (
        "m(X, [X|_]). m(X, [_|L]) :- m(X, L).\n"
        "q(X) :- m(X, [1, 2, 3]) # X = none.\n"
        "r(X, Y) :- (X = 1 ; X = 2), (X > 0 # fail), Y is X * 10.\n"
        "s(A, B) :- r(X, Y), A = X, B = Y.\n"
    )
    assert renders(program, "q(X).") == ["X = 1", "X = 2", "X = 3"]
    assert renders(program, "q(X).", commit_mode="first") == ["X = 1"]
    # The committed choicepoint is on top, so it is popped; backtracking
    # then resumes the older ';', and must undo Y, which is older than it.
    for mode in ("soft", "first"):
        assert renders(program, "s(A, B).", commit_mode=mode) == [
            "A = 1, B = 10", "A = 2, B = 20"]


def test_answers_do_not_share_cells_with_the_run():
    # V is younger than the run's base, so its binding in the second
    # branch is not trailed and outlives the stream.  The first answer
    # holds a copy of V, which stays unbound.
    program = parse_program("t(X, Y) :- X = f(V), Y = V, (true ; V = a).")
    query = parse_query("t(X, Y).")
    answers = Engine(program).solve_collect(query.goal, query.answer_vars).solutions
    assert [s.render() for s in answers] == ["X = f(_G0), Y = _G0", "X = f(a), Y = a"]
    x, y = answers[0].assignments["X"], answers[0].assignments["Y"]
    assert kernel.resolve(x) == Compound("f", (y,)) and y.ref is None
    assert x.args[0] is y  # one copy per variable across the answer


def test_a_stream_run_from_a_trace_hook():
    # Every trace event of the outer run starts and drains an inner run,
    # which must change neither the outer run's answers nor its undoing.
    program = parse_program(
        "p(X, Y) :- q(X), r(X, Z), Y = Z. q(a). q(b). r(a, 1). r(b, 2). r(b, 3)."
    )
    inner = []

    def hook(event):
        z = fresh_var("Z")
        answers = Engine(program).solve(Compound("q", (z,)), [z])
        inner.append([s.assignments["Z"] for s in answers])

    x, y = fresh_var("X"), fresh_var("Y")
    atom = Compound("p", (x, y))

    def pairs(engine):
        return [(s.assignments["X"], s.assignments["Y"]) for s in engine.solve(atom, [x, y])]

    assert pairs(Engine(program, trace=hook)) == pairs(Engine(program)) == [
        (Const("a"), Num(1)), (Const("b"), Num(2)), (Const("b"), Num(3))]
    assert len(inner) > 10 and all(run == [Const("a"), Const("b")] for run in inner)
    assert x.ref is None and y.ref is None


CALLER_PROGRAM = "p(X, Y) :- q(X), Y = X. q(a). q(b)."


def _caller_goal(stream, x, y):
    """``p(X, Y)``, or ``p(X, Y) # X = c`` for the ``choice`` stream."""
    goal = Compound("p", (x, y))
    if stream == "choice":
        goal = Compound("#", (goal, Compound("=", (x, Const("c")))))
    return goal


@pytest.mark.parametrize("stream", ["atom", "choice"])
def test_caller_bindings_survive_a_stream(stream):
    # A run keeps its trail in a store of its own: a caller's store, used
    # between the answers, is neither trailed into nor undone by the run.
    b = Bindings()
    x, y, pre = fresh_var("X"), fresh_var("Y"), fresh_var("Pre")
    b.bind(pre, Const("kept"))
    found = []
    for _ in Engine(parse_program(CALLER_PROGRAM)).solve(_caller_goal(stream, x, y), [y]):
        found.append(b.resolve(y))
        late = fresh_var("Late")
        mark = b.checkpoint()
        b.bind(late, Const("late"))
        assert b == [pre, late]
        b.undo_to(mark)
        assert late.ref is None
    assert found == [Const("a"), Const("b")]
    assert b == [pre] and b.hb == kernel.ALL and pre.ref is Const("kept")
    assert x.ref is None and y.ref is None


def test_a_callers_mark_taken_inside_a_stream_holds_after_it():
    b = Bindings()
    x, kept = fresh_var("X"), fresh_var("Kept")
    marks = []
    for _ in Engine(parse_program("p(a).")).solve(Compound("p", (x,)), [x]):
        marks.append(b.checkpoint())
        b.bind(kept, x.ref)
    assert marks == [0] and x.ref is None and kept.ref is Const("a")
    b.undo_to(marks[0])
    assert b == [] and kept.ref is None


@pytest.mark.parametrize("stream", ["atom", "choice"])
def test_two_streams_of_one_engine_interleave(stream):
    # Each run owns its store, so two suspended runs of one engine do not
    # undo each other's bindings when they are advanced in turn.
    engine = Engine(parse_program(CALLER_PROGRAM))
    x1, y1, x2, y2 = (fresh_var(name) for name in ("X1", "Y1", "X2", "Y2"))
    first = engine.solve(_caller_goal(stream, x1, y1), [x1, y1])
    second = engine.solve(_caller_goal(stream, x2, y2), [x2, y2])
    pairs = []
    for one, two in zip(first, second):
        pairs.append((one.render(), two.render(), x1.ref, x2.ref))
    assert pairs == [
        ("X1 = a, Y1 = a", "X2 = a, Y2 = a", Const("a"), Const("a")),
        ("X1 = b, Y1 = b", "X2 = b, Y2 = b", Const("b"), Const("b")),
    ]
    assert list(second) == [] and first.outcome == second.outcome == EXHAUSTED
    assert all(var.ref is None for var in (x1, y1, x2, y2))


# ---------------------------------------------------------------------------
# Bad configuration and API misuse


@pytest.mark.parametrize("field, value", [
    ("commit_mode", "hard"),
    ("unknown_predicate", "warn"),
    ("depth_limit", 0),
    ("max_solutions", 0),
])
def test_solve_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: value})


@pytest.mark.parametrize("term, message", [
    (fresh_var("G"), "goal is an unbound variable"),
    (Num(3), "number is not a callable goal: 3"),
    (Const("r"), "goal is an unbound variable"),  # r's body is a fresh variable
])
def test_calling_a_non_callable_term_is_an_error(term, message):
    # Only the API builds r: the reader rejects a variable as a goal.
    program = Program(
        parse_program("p(a). p(b).").clauses + [Clause(Const("r"), fresh_var("H"))]
    )
    result = collect_goal(program, term)
    assert result.outcome == "errored" and message in str(result.error)
    # Under a choice the error unwinds through the run's base: the
    # bindings made before it are undone.
    x = fresh_var("X")
    left = Compound(",", (Compound("p", (x,)), term))
    with pytest.raises(MupError, match=message):
        list(Engine(program).solve(Compound("#", (left, TRUE))))
    assert x.ref is None


@pytest.mark.parametrize("goal", ["p(a)", None, (Const("p"),)])
def test_a_goal_that_is_no_term_is_an_error(goal):
    result = collect_goal(parse_program("p(a)."), goal)
    assert result.outcome == "errored" and "cannot solve goal" in str(result.error)


@pytest.mark.parametrize("case", ["clause body", "query"])
def test_a_variable_in_a_goal_slot_calls_its_value(case):
    # Only the API builds these: the reader rejects a variable as a goal.
    g, x = fresh_var("G"), fresh_var("X")
    clauses = parse_program("q(a). q(b).").clauses
    if case == "clause body":  # the whole body is the head's variable
        clauses.append(Clause(Compound("p", (g,)), g))
        goal = Compound("p", (Compound("q", (x,)),))
    else:
        goal = Compound(",", (Compound("=", (g, Compound("q", (x,)))), g))
    result = Engine(Program(clauses)).solve_collect(goal, [x])
    assert [s.render() for s in result.solutions] == ["X = a", "X = b"]
    assert result.outcome == "exhausted"


def test_a_variable_goal_bound_to_a_conjunction_runs_it():
    # A connective is a term, so a goal slot can hold one.
    g, x = fresh_var("G"), fresh_var("X")
    clauses = parse_program("q(a). q(b). r(b).").clauses
    clauses.append(Clause(Compound("p", (g,)), g))
    conj = Compound(",", (Compound("q", (x,)), Compound("r", (x,))))
    result = Engine(Program(clauses)).solve_collect(Compound("p", (conj,)), [x])
    assert [s.render() for s in result.solutions] == ["X = b"]
    assert result.outcome == "exhausted"


@pytest.mark.parametrize("name", [",", "#", ";", "*->"])
def test_a_program_cannot_define_a_connective(name):
    head = Compound(name, (Const("a"), Const("b")))
    with pytest.raises(LoadError, match="%s/2" % re.escape(name)):
        Program([Clause(head, TRUE)])


def test_a_connective_as_data_unifies_and_renders_canonically():
    x, y = fresh_var("X"), fresh_var("Y")
    data = Compound(",", (Const("q"), Const("r")))
    goal = Compound(",", (
        Compound("=", (x, data)),
        Compound(",", (Compound("=", (y, data)), Compound("=", (x, y)))),
    ))
    result = Engine(parse_program("")).solve_collect(goal, [x, y])
    assert [s.render() for s in result.solutions] == ["X = ','(q, r), Y = ','(q, r)"]
    result = Engine(parse_program("")).run_query("X = ','(q, r), Y = ','(q, r), X = Y.")
    assert [s.render() for s in result.solutions] == ["X = ','(q, r), Y = ','(q, r)"]
