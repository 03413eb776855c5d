import random

from mup.engine import Engine, SolveConfig
from mup.oracle import (
    bruteforce_run,
    count_solutions_bruteforce,
    generate_case,
    provable,
    selftest,
)
from mup.syntax import parse_program, parse_query

from conftest import multiset
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


def test_bruteforce_matches_engine_on_examples(son_program):
    for text in ("son(tom,Y).", "son(ann,Y)."):
        goal = goal_of(text)
        engine_sols = list(Engine(son_program).solve(goal))
        oracle_sols = count_solutions_bruteforce(son_program, goal, 10)
        assert multiset(engine_sols) == multiset(oracle_sols)


def test_generated_cases_are_reproducible():
    a = generate_case(1234)
    b = generate_case(1234)
    assert a.describe() == b.describe()


def test_selftest_small():
    report = selftest(seed=5, cases=60, depth=10)
    assert report.ok
    assert report.cases == 60


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
