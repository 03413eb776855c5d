import hashlib
import random
import re
from pathlib import Path

import pytest

from mup.engine import Engine, SolveConfig
from mup.errors import TranslateError
from mup.oracle import generate_case
from mup.syntax import (
    TRUE, Clause, Program, answer_vars_of, format_program, parse_program, parse_query,
)
from mup.terms import Compound, Const, Num
from mup.transpile import translate

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_member_hard_cut_shape():
    program = parse_program("member(X,[Y|L]) :- (Y = X) # member(X,L).")
    out = translate(program, "hard_cut")
    lines = [l for l in out.splitlines() if l and not l.startswith("%")]
    assert lines[0] == "member(X, [Y|L]) :- '$choice_1'(X, Y, L)."
    assert lines[1] == "'$choice_1'(X, Y, L) :- Y = X, !."
    assert lines[2] == "'$choice_1'(X, Y, L) :- member(X, L)."


def test_member_soft_cut_shape():
    program = parse_program("member(X,[Y|L]) :- (Y = X) # member(X,L).")
    out = translate(program, "soft_cut")
    assert "*->" in out
    assert "'$choice_1'(X, Y, L)" in out


def test_identity_on_choice_free_programs():
    text = """
    p(a).
    p(X) :- q(X), r(X, [1, 2|T]).
    q(b) :- 1 < 2.
    """
    program = parse_program(text)
    out = translate(program, "hard_cut")
    emitted = [l for l in out.splitlines() if l and not l.startswith("%")]
    original = format_program(program).strip().splitlines()
    assert [_squash(l) for l in emitted] == [_squash(l) for l in original]


def _squash(line):
    return re.sub(r"\s+", "", line)


def assert_collides(program, message, mode="hard_cut"):
    with pytest.raises(TranslateError) as info:
        translate(program, mode)
    assert str(info.value) == message + " collides with the translator's auxiliary namespace"


def test_collision_with_aux_namespace():
    assert_collides(parse_program("'$choice_1'(x)."), "predicate name '$choice_1'")
    assert_collides(parse_program("p :- '$choice_9'."), "call to '$choice_9'")
    # A call under a nested '#' in a later clause.
    program = parse_program("q. p(X) :- q # ((X = 1, '$choice_3'(X)) # true).")
    assert_collides(program, "call to '$choice_3'")
    # A call inside the condition of a programmatic '*->'.
    cond = Compound(",", (Const("q"), Compound("$choice_3", (Num(1),))))
    body = Compound(";", (Compound("*->", (cond, TRUE)), Const("q")))
    program = Program([Clause(Const("q")), Clause(Const("p"), body)])
    for mode in ("hard_cut", "soft_cut"):
        assert_collides(program, "call to '$choice_3'", mode)


@pytest.mark.parametrize("mode", ["hard_cut", "soft_cut"])
def test_choice_inside_a_soft_if_then_else_is_translated(mode):
    # p :- ((a # b) *-> true ; c) and q :- (fail *-> true ; (a # b)),
    # built through the API: each '#' becomes an auxiliary call like any
    # other.
    choice = Compound("#", (Const("a"), Const("b")))
    p_body = Compound(";", (Compound("*->", (choice, TRUE)), Const("c")))
    q_body = Compound(";", (Compound("*->", (Const("fail"), TRUE)), choice))
    program = Program([Clause(Const("a")), Clause(Const("c")),
                       Clause(Const("p"), p_body), Clause(Const("q"), q_body)])
    translated = parse_program(translate(program, mode), dialect="prolog")
    engine_mode = "first" if mode == "hard_cut" else "soft"
    for query in ("p.", "q.", "a.", "c."):
        goal = parse_query(query).goal
        direct = Engine(program, SolveConfig(commit_mode=engine_mode)).solve_collect(goal)
        via = Engine(translated).solve_collect(goal)
        assert direct.outcome == via.outcome == "exhausted"
        assert [s.render() for s in direct.solutions] == ["true"]
        assert direct.solutions == via.solutions, query


def translation_digest(corpus_cases=2000):
    """sha256 over the translation, in both modes, of every sample program
    and of seed-0 corpus cases, each case's query wrapped in a driver
    clause so that its choices are translated too."""
    digest = hashlib.sha256()
    for path in sorted(PROGRAMS.glob("*.mpl")):
        program = parse_program(path.read_text(encoding="utf-8"))
        for mode in ("hard_cut", "soft_cut"):
            digest.update(translate(program, mode, source_name=path.name).encode())
    for i in range(corpus_cases):
        case = generate_case(i)
        answer_vars = answer_vars_of(case.goal)
        head = Compound("query_entry", tuple(answer_vars)) if answer_vars else Const("query_entry")
        wrapped = Program(case.program.clauses + [Clause(head, case.goal)])
        for mode in ("hard_cut", "soft_cut"):
            digest.update(translate(wrapped, mode).encode())
    return digest.hexdigest()


def test_translations_are_pinned():
    # The transpiler's text may not drift: the digest covers both modes on
    # every sample program and on the first 2,000 corpus cases of seed 0.
    assert translation_digest() == (
        "7b0062ea3e2dc39b0468f6c7762038dbf31213812e7278faa63c26a24f375995")


def test_nested_choices_get_own_auxiliaries():
    program = parse_program("p(X) :- ((X = 1 # X = 2) # X = 3).")
    out = translate(program, "hard_cut")
    assert "'$choice_1'" in out and "'$choice_2'" in out
    reparsed = parse_program(out, dialect="prolog")
    assert len(reparsed.clauses) == 1 + 2 + 2


def test_output_reparses_in_prolog_dialect():
    program = parse_program(
        """
        max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y).
        p(X) :- (q(X) ; fail) # (X = 0 # true).
        q(1).
        """
    )
    for mode in ("hard_cut", "soft_cut"):
        out = translate(program, mode)
        reparsed = parse_program(out, dialect="prolog")
        assert len(reparsed.clauses) >= len(program.clauses)


def test_translated_quoted_atoms_reparse():
    program = parse_program("q('a\\nb'). r(X) :- X = 't\\tab' # X = q.")
    for mode in ("hard_cut", "soft_cut"):
        out = translate(program, mode)
        reparsed = parse_program(out, dialect="prolog")
        assert reparsed.clauses[0].head.args[0] == Const("a\nb")
        answers = Engine(reparsed).run_query("r(X).").solutions
        assert [s.render() for s in answers] == ["X = 't\\tab'"]


def test_translated_operator_arguments_reparse():
    # '='(X, b) and '<'(X, 1) are arguments here, not goals.
    program = parse_program("p(X) :- q('='(X, b)) # q('<'(X, 1)).\nq(_).")
    for mode in ("hard_cut", "soft_cut"):
        out = translate(program, mode)
        assert "q(X = b)" in out and "q(X < 1)" in out
        reparsed = parse_program(out, dialect="prolog")
        answers = Engine(reparsed).run_query("p(X).").solutions
        assert [s.render() for s in answers] == ["true"]


def test_a_data_cut_atom_survives_translation():
    # The prolog dialect reads '!' as the cut only where it stands as a
    # goal, so a translated fact keeps the atom '!' of its source.
    program = parse_program("p('!'). p(a).")
    translated = parse_program(translate(program, "hard_cut"), dialect="prolog")
    for prog in (program, translated):
        engine = Engine(prog)
        assert [s.render() for s in engine.run_query("p('!').").solutions] == ["true"]
        answers = engine.run_query("p(X).").solutions
        assert [s.render() for s in answers] == ["X = '!'", "X = a"]


def test_max_translation_behaviour(max_program=None):
    program = parse_program("max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y).")
    translated = parse_program(translate(program, "hard_cut"), dialect="prolog")
    from mup.syntax import parse_query

    query = parse_query("max(3,9,M).")
    direct = Engine(program, SolveConfig(commit_mode="first")).solve_collect(
        query.goal, query.answer_vars
    )
    via_cut = Engine(translated).solve_collect(query.goal, query.answer_vars)
    assert [s.render() for s in direct.solutions] == ["M = 9"]
    assert direct.solutions == via_cut.solutions


CURATED = [
    ("member(X,[Y|L]) :- (Y = X) # member(X,L).", "member(X,[a,b,c])."),
    ("member(X,[Y|L]) :- (Y = X) ; member(X,L).", "member(X,[a,b,c])."),
    (
        "f(X,Y) :- (X >= 2, Y = 3) # (X < 2, Y = 0).",
        "f(1,Y).",
    ),
    (
        """
        son(X,Y) :- (male(X), father(Y,X)) # (female(X), mother(Y,X)).
        male(tom). father(bob,tom). father(jim,tom).
        female(ann). mother(sue,ann).
        """,
        "son(tom,Y).",
    ),
    (
        "p(X) :- ((X = 1 ; X = 2) # X = 3). p(4).",
        "p(X).",
    ),
    (
        "p(X) :- ((fail # fail) # (X = 2 # X = 3)).",
        "p(X).",
    ),
]


@pytest.mark.parametrize("mode", ["hard_cut", "soft_cut"])
def test_conformance_curated(mode):
    from mup.syntax import parse_query

    engine_mode = "first" if mode == "hard_cut" else "soft"
    for program_text, query_text in CURATED:
        program = parse_program(program_text)
        translated = parse_program(translate(program, mode), dialect="prolog")
        query = parse_query(query_text)
        direct = Engine(
            program, SolveConfig(commit_mode=engine_mode)
        ).solve_collect(query.goal, query.answer_vars)
        via = Engine(translated).solve_collect(query.goal, query.answer_vars)
        assert direct.solutions == via.solutions, (
            program_text,
            query_text,
            mode,
        )


@pytest.mark.parametrize("mode", ["hard_cut", "soft_cut"])
def test_conformance_generated_corpus(mode):
    # Each query is wrapped in a driver clause before translation, so
    # choices inside the query go through the translator as well; both
    # sides then run the same plain driver call.
    from mup.syntax import Clause, Program
    from mup.terms import Compound, Const

    engine_mode = "first" if mode == "hard_cut" else "soft"
    rng = random.Random(314159)
    checked = 0
    for i in range(60):
        case = generate_case(rng.randint(0, 10**9))
        answer_vars = answer_vars_of(case.goal)
        if answer_vars:
            head = Compound("query_entry", tuple(answer_vars))
        else:
            head = Const("query_entry")
        wrapped = Program(case.program.clauses + [Clause(head, case.goal)])
        driver_goal = head

        out = translate(wrapped, mode)
        translated = parse_program(out, dialect="prolog")
        cfg = SolveConfig(
            commit_mode=engine_mode, depth_limit=40, unknown_predicate="fail"
        )
        direct = Engine(wrapped, cfg).solve_collect(driver_goal, answer_vars)
        via = Engine(translated, cfg).solve_collect(driver_goal, answer_vars)
        assert direct.outcome == "exhausted", case.describe()
        assert via.outcome == "exhausted"
        assert direct.solutions == via.solutions, (
            case.describe(),
            mode,
        )
        checked += 1
    assert checked == 60


@pytest.mark.parametrize("mode", ["hard_cut", "soft_cut"])
def test_programmatic_clause_with_shared_or_anonymous_names(mode):
    # Two distinct variables named X and two named _: printed as they are,
    # they would merge or become fresh anonymous variables when reparsed.
    from mup.syntax import Clause, Program, TRUE
    from mup.syntax import parse_query
    from mup.terms import Compound, Num, fresh_var

    x1, x2, u1, u2 = fresh_var("X"), fresh_var("X"), fresh_var("_"), fresh_var("_")
    left = Compound(",", (
        Compound(";", (Compound("=", (x1, Num(1))), Compound("=", (x1, Num(2))))),
        Compound(",", (Compound("=", (x2, Num(3))),
                       Compound(",", (Compound("=", (u1, Const("u"))),
                                      Compound("=", (u2, Const("v"))))))),
    ))
    program = Program([Clause(Compound("p", (x1, x2, u1, u2)), Compound("#", (left, TRUE)))])
    out = translate(program, mode)
    assert out.splitlines()[1] == (
        "p(X, X_2, _V_2, _V_3) :- '$choice_1'(X, X_2, _V_2, _V_3).")
    translated = parse_program(out, dialect="prolog")
    query = parse_query("p(A, B, C, D).")
    engine_mode = "first" if mode == "hard_cut" else "soft"
    direct = Engine(program, SolveConfig(commit_mode=engine_mode)).solve_collect(
        query.goal, query.answer_vars)
    via = Engine(translated).solve_collect(query.goal, query.answer_vars)
    expected = ["A = 1, B = 3, C = u, D = v", "A = 2, B = 3, C = u, D = v"]
    if mode == "hard_cut":
        expected = expected[:1]
    assert [s.render() for s in direct.solutions] == expected
    assert [s.render() for s in via.solutions] == expected
