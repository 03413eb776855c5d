"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` for one line per
criterion; the prints below additionally summarize each check when
output capture is off (-s).
"""

import random
import time

from mup.builtins import IoPorts
from mup.cli import main
from mup.engine import Engine, SolveConfig
from mup.kernel import Bindings, unify
from mup.oracle import _gen_goal, generate_case, generate_program
from mup.syntax import (
    Clause,
    Program,
    answer_vars_of,
    parse_program,
    parse_query,
    pretty_clause,
    pretty_goal,
)
from mup.terms import Compound, Const, fresh_var
from mup.transpile import translate

from helpers import (
    AstGen,
    cells,
    clause_equal,
    random_term_pair,
    ref_apply,
    ref_unify,
    same_cells,
    term_equal,
)


def report(criterion, text):
    print("ACCEPTANCE %-2s PASS  %s" % (criterion, text))


MAX = "max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y)."
F = "f(X,Y) :- (X >= 2, Y = 3) # (X < 2, Y = 0)."
MEMBER_CHOICE = "member(X,[Y|L]) :- (Y = X) # member(X,L)."
MEMBER_CLASSIC = "member(X,[Y|L]) :- (Y = X) ; member(X,L)."
SON = """
son(X,Y) :- (male(X), father(Y,X)) # (female(X), mother(Y,X)).
male(tom). father(bob,tom). father(jim,tom).
female(ann). mother(sue,ann).
"""
RPRIME = """
rprime :- read(X),
          ((prime(X), write('prime')) # (composite(X), write('composite'))).
prime(2). prime(3). prime(5). prime(7).
composite(4). composite(6). composite(8). composite(9).
"""


def answers(program_text, query_text, **cfg):
    program = parse_program(program_text)
    result = Engine(program, SolveConfig(**cfg)).run_query(query_text)
    assert result.error is None, result.error
    return [s.render() for s in result.solutions]


def test_criterion_01_max_example():
    start = time.monotonic()
    got = answers(MAX, "max(3,9,M).")
    elapsed = time.monotonic() - start
    assert got == ["M = 9"], got
    assert elapsed < 1.0
    report(1, "max(3,9,M). -> exactly M = 9 in %.3fs" % elapsed)


def test_criterion_02_f_example():
    assert answers(F, "f(1,Y).") == ["Y = 0"]
    assert answers(F, "f(5,Y).") == ["Y = 3"]
    report(2, "f(1,Y). -> Y = 0 and f(5,Y). -> Y = 3, one solution each")


def test_criterion_03_member_counts():
    committed = answers(MEMBER_CHOICE, "member(X,[a,b,c]).")
    classical = answers(MEMBER_CLASSIC, "member(X,[a,b,c]).")
    assert len(committed) == 1, committed
    assert len(classical) == 3, classical
    report(3, "member/2: 1 solution with '#', 3 with ';'")


def test_criterion_04_son_trace():
    program = parse_program(SON)
    events = []
    engine = Engine(program, trace=events.append)
    query = parse_query("son(tom,Y).")
    sols = [s.render() for s in engine.solve(query.goal, query.answer_vars)]
    assert sols == ["Y = bob", "Y = jim"], sols
    discarded = [e for e in events if e.kind == "choice_discarded"]
    female_discards = [e for e in discarded if "female" in e.payload]
    assert len(female_discards) == 1
    assert len(discarded) == 1
    # Control query: the female branch is reachable when male(X) fails.
    control = [s.render() for s in Engine(program).solve(parse_query("son(ann,Y).").goal)]
    assert control == ["Y = sue"]
    report(4, "son(tom,Y). -> 2 father-derived answers, female branch "
              "discarded exactly once")


def test_criterion_05_rprime():
    program = parse_program(RPRIME)
    for line, expected in (("7.", "prime"), ("9.", "composite")):
        io = IoPorts.scripted([line])
        result = Engine(program, io=io).run_query("rprime.")
        assert result.error is None
        assert len(result.solutions) == 1
        assert io.captured() == expected
        assert io.captured().count(expected) == 1
    report(5, "rprime: input 7 prints 'prime' once, input 9 prints "
              "'composite' once")


def test_criterion_06_choice_exclusivity_500():
    start = time.monotonic()
    rng = random.Random(20260811)
    checked = 0
    for _ in range(500):
        program = generate_program(rng)
        shared = [fresh_var("Q")]
        g0 = _gen_goal(rng, shared, 3, rng.randint(0, 2))
        g1 = _gen_goal(rng, shared, 3, rng.randint(0, 2))
        for mode in ("soft", "first"):
            cfg = SolveConfig(
                commit_mode=mode, depth_limit=10, unknown_predicate="fail"
            )
            avs = answer_vars_of(Compound("#", (g0, g1)))
            whole = Engine(program, cfg).solve_collect(Compound("#", (g0, g1)), avs)
            left = Engine(program, cfg).solve_collect(g0, avs)
            if left.solutions:
                expected = (
                    left.solutions if mode == "soft" else left.solutions[:1]
                )
            else:
                expected = Engine(program, cfg).solve_collect(g1, avs).solutions
            assert whole.solutions == expected, (
                pretty_goal(Compound("#", (g0, g1))),
                mode,
            )
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 500
    assert elapsed < 60.0
    report(6, "choice exclusivity on 500 random triples, both modes, "
              "%.1fs" % elapsed)


def test_criterion_07_oracle_differential(capsys):
    start = time.monotonic()
    code = main(["selftest", "--cases", "300", "--depth", "10"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "answer sequences: 0 mismatches" in out
    assert "success: 0 mismatches" in out
    assert elapsed < 300.0
    report(7, "selftest 300 cases depth 10: 100%% agreement in %.1fs"
              % elapsed)


def test_criterion_08_transpiler_conformance():
    curated = [
        (MAX, "max(3,9,M)."),
        (MEMBER_CHOICE, "member(X,[a,b,c])."),
        (MEMBER_CLASSIC, "member(X,[a,b,c])."),
        (F, "f(1,Y)."),
        (SON, "son(tom,Y)."),
    ]
    mismatches = 0
    checked = 0
    for mode, engine_mode in (("hard_cut", "first"), ("soft_cut", "soft")):
        for program_text, query_text in curated:
            program = parse_program(program_text)
            text = translate(program, mode)
            translated = parse_program(text, dialect="prolog")  # reparses
            query = parse_query(query_text)
            direct = Engine(
                program, SolveConfig(commit_mode=engine_mode)
            ).solve_collect(query.goal, query.answer_vars)
            via = Engine(translated).solve_collect(
                query.goal, query.answer_vars
            )
            if direct.solutions != via.solutions:
                mismatches += 1
            checked += 1
        rng = random.Random(8)
        for _ in range(50):
            case = generate_case(rng.randint(0, 10**9))
            avs = answer_vars_of(case.goal)
            head = (
                Compound("query_entry", tuple(avs))
                if avs
                else Const("query_entry")
            )
            wrapped = Program(case.program.clauses + [Clause(head, case.goal)])
            text = translate(wrapped, mode)
            translated = parse_program(text, dialect="prolog")  # reparses
            cfg = SolveConfig(
                commit_mode=engine_mode,
                depth_limit=40,
                unknown_predicate="fail",
            )
            direct = Engine(wrapped, cfg).solve_collect(head, avs)
            via = Engine(translated, cfg).solve_collect(head, avs)
            assert direct.outcome == "exhausted"
            assert via.outcome == "exhausted"
            if direct.solutions != via.solutions:
                mismatches += 1
            checked += 1
    assert mismatches == 0
    report(8, "transpiler conformance: %d program/query/mode checks, "
              "0 mismatches" % checked)


def test_criterion_09_unifier_properties_1000():
    rng = random.Random(424242)
    violations = 0
    pairs = 0
    while pairs < 1000:
        shared = [fresh_var(n) for n in ("X", "Y", "Z")]
        t, s = random_term_pair(rng, shared)
        ref = ref_unify(t, s, occurs_check=True)
        b = Bindings()
        seed_var = fresh_var("Seed")
        b.bind(seed_var, Const("anchor"))
        before_cells = cells(t, s, seed_var)
        before_trail = list(b)
        ok = unify(t, s, b, occurs_check=True)
        if ok != (ref is not None):
            violations += 1
        elif ok:
            ours = b.resolve(t)
            if not (
                ours == b.resolve(s)
                and term_equal(ours, ref_apply(t, ref), {})
                and term_equal(ref_apply(t, ref), ours, {})
            ):
                violations += 1
        else:
            if not same_cells(before_cells) or b != before_trail:
                violations += 1
        pairs += 1
    assert violations == 0
    report(9, "unifier: 1000 random pairs agree with the reference "
              "implementation; failures restore the trail and every "
              "involved variable")


def test_criterion_10_round_trip_1000():
    gen = AstGen(5150)
    violations = 0
    total = 0
    for _ in range(400):
        gen.reset_scope()
        term = gen.term(4)
        from mup.syntax import parse_term, pretty

        back = parse_term(pretty(term) + " .")
        if not term_equal(term, back, {}):
            violations += 1
        total += 1
    for _ in range(300):
        gen.reset_scope()
        goal = gen.goal(3)
        back = parse_query(pretty_goal(goal) + ".").goal
        if not term_equal(goal, back, {}):
            violations += 1
        total += 1
    for _ in range(300):
        clause = gen.clause()
        back = parse_program(pretty_clause(clause)).clauses[0]
        if not clause_equal(clause, back):
            violations += 1
        total += 1
    assert total == 1000
    assert violations == 0
    report(10, "round-trip: 1000 generated ASTs reparse identically "
               "(up to variable renaming)")
