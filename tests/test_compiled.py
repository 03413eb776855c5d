"""Compiled clauses and the first-argument index: generated code shares
what has no variables, head matching binds as a renamed head would, and
the index keeps source order under every search feature."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mup.compiled
import mup.engine
from mup import kernel
from mup.compiled import build_body, compile_clause, match_head
from mup.engine import Engine
from mup.kernel import Bindings
from mup.syntax import (
    Clause,
    Program,
    free_goal_vars,
    parse_program,
    parse_query,
    subst_goal,
)
from mup.terms import Compound, Const, Num, Var, fresh_var, mk_list

from conftest import collect
from helpers import cells, same_cells


def answers(program_text, query_text, **cfg):
    return collect(program_text, query_text, **cfg)[0]


def answers_for(program, text):
    return [s.render() for s in Engine(program).run_query(text).solutions]


# ---------------------------------------------------------------------------
# Templates and generated code


def test_ground_fact_is_its_own_template():
    clause = parse_program("f(1, v1).").clauses[0]
    assert clause.code is None  # compiled on its first try, not at load
    compile_clause(clause)
    assert clause.code == (None, None)  # no generated code
    # The head is unified with the call as it is: its parts are shared.
    store = Bindings()
    call = Compound("f", (fresh_var("X"), Const("v1")))
    assert match_head(clause, call, store, False) == ()
    assert store.deref(call.args[0]) is clause.head.args[0]
    assert build_body(clause, ()) is clause.body


def test_ground_subterms_and_subgoals_are_shared():
    clause = parse_program("p(X, [a, b]) :- q(X), write(done).").clauses[0]
    ground_list = clause.head.args[1]
    store = Bindings()
    call = Compound("p", (Const("x"), fresh_var("L")))
    values = match_head(clause, call, store, False)
    body = build_body(clause, values)
    assert store.deref(call.args[1]) is ground_list  # bound to it, not a copy
    assert body.args[1] is clause.body.args[1]  # write(done) is not copied
    assert body.args[0].args[0] == Const("x")


def test_empty_slots_get_shared_fresh_variables():
    # Y is first made when write mode builds f(Y) for the unbound B; the
    # body shares that variable, and the body-only Z gets a fresh one.
    clause = parse_program("p(X, f(Y)) :- q(Y, X, Y, Z, Z).").clauses[0]
    a, b = fresh_var("A"), fresh_var("B")
    store = Bindings()
    values = match_head(clause, Compound("p", (a, b)), store, False)
    body = build_body(clause, values)
    y = store.deref(b).args[0]
    z = body.args[3]
    assert type(y) is Var and y.name == "Y"
    assert type(z) is Var and z.name == "Z" and z.id != y.id
    assert body.args == (y, a, y, z, z)


@pytest.mark.parametrize(
    "program, query, expected",
    [
        ("p(X, X).", "p(A, B).", ["B = A"]),
        ("p(f(X), X).", "p(A, B).", ["A = f(B)"]),
        ("p(X, f(X), Y, Y).", "p(A, B, C, D).", ["B = f(A), D = C"]),
        ("p([H|T], T, H).", "p(L, [b], a).", ["L = [a, b]"]),
        ("p(g(X, Y), X, Y).", "p(Z, W, W).", ["Z = g(W, W)"]),
    ],
)
def test_head_unification_binds_like_a_renamed_head(program, query, expected):
    assert answers(program, query) == expected


def test_head_unification_occurs_check():
    assert answers("p(X, f(X)).", "p(Y, Y).", occurs_check=True) == []


# ---------------------------------------------------------------------------
# Head arguments in the WAM's order, a repeated variable unified inline

NREV = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


def count_matcher_unify_calls(monkeypatch):
    """The list the generated matchers' calls of ``kernel.unify`` go to."""
    calls = []
    unify = mup.compiled._SCOPE["unify"]

    def counting_unify(*args):
        calls.append(args)
        return unify(*args)

    monkeypatch.setitem(mup.compiled._SCOPE, "unify", counting_unify)
    monkeypatch.setattr(mup.compiled, "CODE", {})
    return calls


def test_naive_reverse_matches_heads_without_kernel_unify(monkeypatch):
    # app/3 reads H from its first argument before write mode builds
    # [H|R], so no inference needs the kernel's unify.
    calls = count_matcher_unify_calls(monkeypatch)
    items = list(range(1, 31))
    query = "nrev([%s], R)." % ", ".join(map(str, items))
    expected = "R = [%s]" % ", ".join(map(str, reversed(items)))
    assert answers_for(parse_program(NREV), query) == [expected]
    assert calls == []


@pytest.mark.parametrize("occurs_check", [False, True])
def test_repeated_head_variable_binds_an_unbound_call_argument_inline(
        monkeypatch, occurs_check):
    calls = count_matcher_unify_calls(monkeypatch)
    clause = parse_program("app([], L, L).").clauses[0]
    items = mk_list([Num(1), Num(2)])
    r = fresh_var("R")
    store = Bindings()
    call = Compound("app", (Const("[]"), items, r))
    assert match_head(clause, call, store, occurs_check) == ()
    assert r.ref is items and store == [r]
    assert calls == []


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_repeated_head_variable_binds_the_younger_cell_to_the_older(order):
    clause = parse_program("p(X, X).").clauses[0]
    a, b = fresh_var("A"), fresh_var("B")  # B is younger
    call = Compound("p", (a, b) if order == "AB" else (b, a))
    store = Bindings()
    store.hb = b.id  # B is made after the newest choicepoint: not trailed
    assert match_head(clause, call, store, False) == ()
    assert b.ref is a and a.ref is None and store == []
    b.ref = None
    store.hb = kernel.ALL
    assert match_head(clause, call, store, False) == ()
    assert b.ref is a and a.ref is None and store == [b]


# ---------------------------------------------------------------------------
# Generated code against the kernel's unify on a freshly renamed clause

CLAUSE_VARS = [fresh_var(name) for name in ("X", "Y", "Z", "W")]
BODY_VARS = [fresh_var(name) for name in ("U", "V")]  # never in a head
CALL_VARS = [fresh_var(name) for name in ("A", "B", "C", "D")]
LEAVES = [Const("a"), Const("b"), Const("[]"), Num(1), Num(2), Num(1.0)]


def terms_over(pool):
    """Terms with nested compounds (f/1 and f/2 clash) and lists."""
    return st.recursive(
        st.sampled_from(pool + LEAVES),
        lambda kids: st.one_of(
            st.builds(lambda args: Compound("f", args), st.lists(kids, min_size=1, max_size=2)),
            st.builds(lambda head, tail: Compound(".", (head, tail)), kids, kids),
            st.builds(mk_list, st.lists(kids, max_size=3)),
        ),
        max_leaves=10,
    )


def goals_over(pool):
    terms = terms_over(pool)
    return st.recursive(
        st.one_of(
            st.builds(lambda t: Compound("q", (t,)), terms),
            st.builds(lambda a, b: Compound("=", (a, b)), terms, terms),
        ),
        lambda kids: st.one_of(
            st.builds(lambda a, b: Compound(",", (a, b)), kids, kids),
            st.builds(lambda a, b: Compound("#", (a, b)), kids, kids),
        ),
        max_leaves=6,
    )


def _shape(roots, budget=300):
    """Preorder tokens of terms and goals under the current bindings, each
    unbound variable numbered by first appearance.  At most ``budget``
    tokens, so a cyclic binding (occurs check off) still gives an answer."""
    numbering = {}
    out = []
    stack = list(reversed(roots))
    while stack and len(out) < budget:
        node = kernel.deref(stack.pop())
        t = type(node)
        if t is Var:
            out.append(("var", numbering.setdefault(node.id, len(numbering))))
        elif t is Const:
            out.append(("const", node.name))
        elif t is Num:
            out.append(("num", repr(node.value)))
        else:
            out.append((node.functor, len(node.args)))
            stack.extend(reversed(node.args))
    return out


HEAD_ARGS = {n: st.lists(terms_over(CLAUSE_VARS), min_size=n, max_size=n) for n in (1, 2, 3)}
# Half of the call's arguments are bare variables, so that heads match often.
CALL_ARG = st.one_of(st.sampled_from(CALL_VARS), terms_over(CALL_VARS))
CALL_ARGS = {n: st.lists(CALL_ARG, min_size=n, max_size=n) for n in (1, 2, 3)}
BODIES = goals_over(CLAUSE_VARS + BODY_VARS)
# A call variable is bound only to terms over later ones: no cycle at the start.
BINDINGS = [terms_over(CALL_VARS[i + 1:]) for i in range(len(CALL_VARS))]


def check_against_a_renamed_clause(data, bindings, occurs_checks):
    """Match a drawn clause with a drawn call of the same predicate, as the
    engine's lookup guarantees, by the generated code and by
    ``kernel.unify`` on a renamed copy; both must succeed or fail alike and
    leave the call and the body in the same shape, and undoing to the mark
    taken before the match must restore every cell of the call.  Each call
    variable may first be bound to a term drawn from its entry of
    ``bindings``."""
    arity = data.draw(st.integers(1, 3))
    head = Compound("p", data.draw(HEAD_ARGS[arity]))
    body = data.draw(BODIES)
    call = Compound("p", data.draw(CALL_ARGS[arity]))
    clause = Clause(head, body)
    # Every draw comes before the first binding: a draw may end the
    # example, and a binding left then would outlive it.
    drawn = [data.draw(terms) if data.draw(st.booleans()) else None for terms in bindings]
    store = Bindings()
    for var, term in zip(CALL_VARS, drawn):
        if term is not None:
            kernel.unify(var, term, store)
    start = store.checkpoint()
    start_cells = cells(call)
    try:
        for occurs_check in occurs_checks:
            names = {v.id: fresh_var(v.name) for v in free_goal_vars(Compound(",", (head, body)))}
            ok = kernel.unify(subst_goal(head, names), call, store, occurs_check)
            if ok:
                expected = _shape([call, subst_goal(body, names)])
                # Bindings live in the call's variables: undo the renamed
                # clause's match before the generated code runs on them.
                store.undo_to(start)
            values = match_head(clause, call, store, occurs_check)
            assert ok == (values is not None)
            if ok:
                assert _shape([call, build_body(clause, values)]) == expected
            store.undo_to(start)  # a failed match leaves this to its caller
            assert same_cells(start_cells)
    finally:
        store.undo_to(0)  # the call's variables are shared by every example


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_code_agrees_with_unify_on_a_renamed_clause(data):
    check_against_a_renamed_clause(data, BINDINGS, (True, False))


def test_generated_code_agrees_with_unify_when_nested_heads_go_to_the_kernel(monkeypatch):
    # With one level of blocks, every compound nested in a head argument
    # is built and passed to kernel.unify.
    monkeypatch.setattr(mup.compiled, "_DEPTH", 1)
    monkeypatch.setattr(mup.compiled, "CODE", {})
    test_generated_code_agrees_with_unify_on_a_renamed_clause()


# A call variable may be bound to a term over any of them, itself included.
CYCLIC_BINDINGS = [terms_over(CALL_VARS)] * len(CALL_VARS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def agrees_with_unify_on_cyclic_calls(data):
    check_against_a_renamed_clause(data, CYCLIC_BINDINGS, (False,))


def test_generated_code_agrees_with_unify_when_the_call_is_cyclic(monkeypatch):
    # Without the occurs check a binding may make the call cyclic; the
    # matcher passes such terms to kernel.unify, which must still end.
    # kernel.occurs has no cycle guard, and with the check on the engine
    # never makes a cyclic binding, so only the check off is tried.
    monkeypatch.setattr(kernel, "_PAIRS", 4)
    agrees_with_unify_on_cyclic_calls()


# ---------------------------------------------------------------------------
# A head without variables, matched in place by match_head

GROUND_TERMS = st.one_of(st.sampled_from(LEAVES), terms_over([]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def head_without_variables_agrees_with_unify(failed_after_binding, data):
    arity = data.draw(st.integers(1, 3))
    call = Compound("p", data.draw(CALL_ARGS[arity]))  # of the head's predicate
    # Some heads take every argument of the call, made ground as below,
    # but the last, an atom no call holds, so that a match may bind and
    # then fail.
    clash = arity > 1 and data.draw(st.booleans())
    store = Bindings()
    try:  # a draw may end the example: its bindings must not outlive it
        for var, terms in zip(CALL_VARS, BINDINGS):
            if data.draw(st.booleans()):
                kernel.unify(var, data.draw(terms), store)
        # Half of the head's arguments are the call's with each unbound
        # variable made an atom or a number, so that heads match often.
        ground = lambda var: data.draw(st.sampled_from(LEAVES))
        args = []
        for i in range(arity):
            if clash:
                args.append(Const("clash") if i == arity - 1
                            else kernel.rebuild(call.args[i], ground))
            elif data.draw(st.booleans()):
                args.append(kernel.rebuild(call.args[i], ground))
            else:
                args.append(data.draw(GROUND_TERMS))
        head = Compound("p", args)
        clause = Clause(head, data.draw(st.one_of(st.just(kernel.TRUE), BODIES)))
        start = store.checkpoint()
        start_cells = cells(call)
        for occurs_check in (True, False):
            ok = kernel.unify(head, call, store, occurs_check)
            if ok:
                expected = _shape([call])
                store.undo_to(start)
            values = match_head(clause, call, store, occurs_check)
            assert clause.code[0] is None  # no generated matcher
            assert ok == (values is not None)
            if ok:
                assert values == () and _shape([call]) == expected
            elif len(store) > start:
                failed_after_binding.append(head)
            store.undo_to(start)  # a failed match leaves this to its caller
            assert same_cells(start_cells)
    finally:
        store.undo_to(0)  # the call's variables are shared by every example


def test_head_without_variables_agrees_with_unify():
    failed_after_binding = []
    head_without_variables_agrees_with_unify(failed_after_binding)
    # Undoing must then restore cells that the failed match bound.
    assert len(failed_after_binding) >= 80


def fact(text):
    return parse_program(text).clauses[0]


def test_head_without_variables_fails_on_a_repeated_call_variable():
    x = fresh_var("X")
    store = Bindings()
    assert match_head(fact("f(a, b)."), Compound("f", (x, x)), store, False) is None
    store.undo_to(0)  # a failed match leaves this to its caller
    assert x.ref is None


@pytest.mark.parametrize(
    "head, call", [("p(1).", Num(1.0)), ("p(1.0).", Num(1)), ("p(1).", Num(2))])
def test_head_without_variables_checks_a_number_by_type_and_value(head, call):
    store = Bindings()
    assert match_head(fact(head), Compound("p", (call,)), store, False) is None
    assert store == []


def test_head_without_variables_binds_inside_a_compound_argument():
    y = fresh_var("Y")
    store = Bindings()
    call = Compound("p", (Compound("f", (y,)),))
    assert match_head(fact("p(f(a))."), call, store, True) == ()
    assert y.ref is Const("a") and store == [y]


def test_head_without_variables_follows_a_bound_chain():
    a, b = fresh_var("A"), fresh_var("B")
    store = Bindings()
    store.bind(a, b)
    call = Compound("p", (a,))
    assert match_head(fact("p(x)."), call, store, False) == ()
    assert a.ref is b and b.ref is Const("x") and store == [a, b]
    store.undo_to(1)
    store.bind(b, Const("x"))
    assert match_head(fact("p(y)."), call, store, False) is None
    assert b.ref is Const("x") and store == [a, b]


def test_head_without_variables_trails_only_cells_below_the_boundary():
    a, b = fresh_var("A"), fresh_var("B")  # B is younger
    clause = fact("p(1, a).")
    store = Bindings()
    store.hb = b.id  # B is made after the newest choicepoint: not trailed
    assert match_head(clause, Compound("p", (a, b)), store, False) == ()
    assert a.ref == Num(1) and b.ref is Const("a") and store == [a]


def test_atomic_fact_matches_without_kernel_unify(monkeypatch):
    calls = []

    def counting_unify(*args):
        calls.append(args)
        return kernel.unify(*args)

    monkeypatch.setattr(mup.compiled, "unify", counting_unify)
    x, y = fresh_var("X"), fresh_var("Y")
    store = Bindings()
    assert match_head(fact("p(1, a)."), Compound("p", (x, Const("a"))), store, False) == ()
    assert match_head(fact("p(2, b)."), Compound("p", (y, Const("a"))), store, False) is None
    store.undo_to(1)  # a failed match leaves this to its caller
    assert x.ref == Num(1) and y.ref is None and store == [x]
    assert calls == []
    # A compound argument still goes to the kernel.
    assert match_head(fact("q(f(a))."), Compound("q", (x,)), store, False) is None
    assert len(calls) == 1


DEEP_HEAD = "p([A, B, C, D, E | T], T, A)."  # five list cells deep


@pytest.mark.parametrize("depth", [1, mup.compiled._DEPTH])
@pytest.mark.parametrize(
    "query, expected",
    [
        ("p(L, R, X).", ["L = [X, _G0, _G1, _G2, _G3|R]"]),
        ("p([1, 2, 3, 4, 5, 6], R, X).", ["R = [6], X = 1"]),
        ("p([1, 2, 3, 4], R, X).", []),
        ("p([1, Y, 3 | Z], [6], X).", ["Z = [_G0, _G1, 6], X = 1"]),
        ("p([X, 2, 3, 4, 5 | R], R, 1).", ["X = 1"]),
        ("p([1, 2, 3, 4, 5 | R], R, 2).", []),
        ("p([1, 2, 3, 4, 5, 6 | R], S, X).", ["S = [6|R], X = 1"]),
    ],
)
def test_head_nested_deeper_than_its_blocks(monkeypatch, depth, query, expected):
    monkeypatch.setattr(mup.compiled, "_DEPTH", depth)
    monkeypatch.setattr(mup.compiled, "CODE", {})
    assert answers(DEEP_HEAD, query) == expected
    assert answers(DEEP_HEAD, query, occurs_check=True) == expected
    if query == "p(L, R, X).":  # the tail T would have to hold itself
        assert answers(DEEP_HEAD, "p(L, L, X).", occurs_check=True) == []


def test_generated_code_stays_a_few_lines_per_head_list_element(monkeypatch):
    # Each block builds its compound once for write mode, so a long list
    # head costs a few lines per element and per block level.
    monkeypatch.setattr(mup.compiled, "CODE", {})
    n = 1000
    text = "p([%s], X0, X%d)." % (", ".join("X%d" % i for i in range(n)), n - 1)
    compile_clause(parse_program(text).clauses[0])
    assert sum(source.count("\n") for source in mup.compiled.CODE) <= 8 * n


def test_clauses_compile_on_their_first_try():
    program = parse_program("p(1, X) :- q(X). p(2, X) :- q(X). q(a).")
    assert all(clause.code is None for clause in program.clauses)
    assert answers_for(program, "p(2, Y).") == ["Y = a"]
    assert [clause.code is None for clause in program.clauses] == [True, False, False]


def test_same_shape_clauses_share_one_code_object_per_function(monkeypatch):
    # Constants, functor names and variable names are parameters, so a
    # reverse scan of 10,000 clauses of one shape compiles one head
    # matcher and one body builder.
    monkeypatch.setattr(mup.compiled, "CODE", {})
    text = "".join("g(%d, X, [X|T]) :- h(X, T).\n" % i for i in range(10000))
    program = parse_program(text + "h(a, []).")
    assert answers_for(program, "g(K, a, L), K = 9999.") == ["K = 9999, L = [a]"]
    assert len(mup.compiled.CODE) == 2
    codes = {(c.code[0].__code__, c.code[1].__code__) for c in program.clauses[:-1]}
    assert len(codes) == 1


# ---------------------------------------------------------------------------
# First-argument index

MIXED = "p(X, v). p(1, a). p(X, w). p(2, b)."


@pytest.mark.parametrize(
    "query, expected",
    [
        ("p(1, Y).", ["Y = v", "Y = a", "Y = w"]),
        ("p(2, Y).", ["Y = v", "Y = w", "Y = b"]),
        ("p(3, Y).", ["Y = v", "Y = w"]),
        ("p(K, Y).", ["Y = v", "K = 1, Y = a", "Y = w", "K = 2, Y = b"]),
        ("X = Z, Z = 2, p(X, Y).", ["X = 2, Z = 2, Y = v", "X = 2, Z = 2, Y = w",
                                    "X = 2, Z = 2, Y = b"]),
    ],
)
def test_index_keeps_source_order_with_variable_first_arguments(query, expected):
    assert answers(MIXED, query) == expected


@pytest.mark.parametrize(
    "query, expected",
    [
        ("p(1).", ["true"]),
        ("p(1.0).", ["true"]),
        ("p('1').", []),
        ("p(X).", ["X = 1", "X = 1.0"]),
    ],
)
def test_index_keeps_int_float_and_atom_keys_apart(query, expected):
    assert answers("p(1). p(1.0).", query) == expected


def test_index_keys_compounds_by_functor_and_arity():
    program = "p(f(a), 1). p(f(a, b), 2). p(g(a), 3). p(f(X), 4). p(f, 5)."
    assert answers(program, "p(f(Z), N).") == ["Z = a, N = 1", "N = 4"]
    assert answers(program, "p(f, N).") == ["N = 5"]


def test_index_size_stays_linear_when_variables_interleave():
    # Each variable-first clause is a block of its own, not an entry in
    # every bucket, so 2,000 keys interleaved with 2,000 variables cost
    # 4,000 entries, not millions.
    text = " ".join("p(%d, a). p(X, b)." % i for i in range(2000))
    pred = parse_program(text).predicates[("p", 2)]
    assert sum(len(b) if type(b) is dict else 1 for b in pred.blocks) == 4000
    assert answers(text, "p(7, Y).") == ["Y = b"] * 7 + ["Y = a"] + ["Y = b"] * 1993


# First head arguments for the dispatch property, each with its key: an
# int and the float equal to it, atoms, f/1 (twice), f/2, g/1 and a variable.
FIRST_ARGS = [("1", "int"), ("1.0", "float"), ("a", "a"), ("b", "b"), ("f(x)", "f/1"),
              ("f(y)", "f/1"), ("f(x, y)", "f/2"), ("g(x)", "g/1"), ("X", None)]


@settings(max_examples=300, deadline=None)
@given(
    heads=st.lists(st.sampled_from(FIRST_ARGS), min_size=1, max_size=8),
    call=st.sampled_from(FIRST_ARGS),
    chain=st.integers(0, 3),
)
def test_dispatch_gives_the_clauses_of_the_calls_key_in_source_order(heads, call, chain):
    text = " ".join("p(%s, %d)." % (head, i) for i, (head, _) in enumerate(heads))
    program = parse_program(text)
    # The call's first argument: unbound, or bound directly or through a
    # chain of variables.
    arg = parse_query("q(%s)." % call[0]).goal.args[0]
    for _ in range(chain):
        link = fresh_var("L")
        link.ref = arg
        arg = link
    got = program.predicates[("p", 2)].candidates(Compound("p", (arg, fresh_var("Y"))))
    expected = [clause for clause, (_, key) in zip(program.clauses, heads)
                if key is None or call[1] is None or key == call[1]]
    if len(expected) == 1:
        assert got is expected[0]
    else:
        assert type(got) is not Clause
        assert [id(c) for c in got] == [id(c) for c in expected]


def test_misses_on_a_mixed_predicate_get_one_prebuilt_default():
    pred = parse_program(MIXED).predicates[("p", 2)]
    first, second = (pred.candidates(parse_query("p(%s, Y)." % key).goal)
                     for key in ("3", "f(a)"))
    assert first is second
    assert [clause.head.args[1] for clause in first] == [Const("v"), Const("w")]
    countdown = parse_program("d(N) :- N > 0, M is N - 1, d(M). d(0).")
    pred = countdown.predicates[("d", 1)]
    assert pred.candidates(parse_query("d(5).").goal) is countdown.clauses[0]
    assert pred.candidates(parse_query("d(0).").goal) == list(countdown.clauses)


def test_dispatch_gives_every_clause_for_a_first_argument_that_is_no_term():
    # Only the API can build such a call; it keys like a variable.
    program = parse_program("p(1). p(X).")
    result = Engine(program).solve_collect(Compound("p", (None,)), [])
    assert result.error is None and len(result.solutions) == 1
    assert program.predicates[("p", 1)].candidates(Compound("p", (None,))) \
        is program.predicates[("p", 1)].clauses


def test_predicate_holds_one_sequence_of_its_clauses():
    program = parse_program("p(1). p(X). q(a). r.")
    for key, count in ((("p", 1), 2), (("q", 1), 1), (("r", 0), 1)):
        pred = program.predicates[key]
        assert len(pred.clauses) == count
    assert program.predicates[("p", 1)].candidates(parse_query("p(Z).").goal) \
        is program.predicates[("p", 1)].clauses


def test_zero_argument_compound_head_is_not_indexed():
    # Only the API builds p(); it shares the indicator p/0 with the atom,
    # so the lookup sends each to the other's clauses, which do not match.
    atom, empty = Const("p"), Compound("p", ())
    for head, call, count in ((empty, empty, 1), (atom, atom, 1),
                              (empty, atom, 0), (atom, empty, 0)):
        result = Engine(Program([Clause(head)])).solve_collect(call, [])
        assert result.error is None and len(result.solutions) == count


def test_empty_bucket_still_enters_the_predicate():
    events = []
    engine = Engine(parse_program("p(1). p(2)."), trace=events.append)
    assert engine.run_query("p(3).").solutions == []
    assert [e.kind for e in events] == ["reduce", "backchain_enter"]


def test_index_under_first_commit_mode():
    program = "p(1, a). p(2, x). p(1, b). q(Y) :- p(1, Y) # Y = none."
    assert answers(program, "q(Y).") == ["Y = a", "Y = b"]
    assert answers(program, "q(Y).", commit_mode="first") == ["Y = a"]


def test_prolog_cut_without_clause_choicepoint_keeps_outer_alternatives():
    # p(1, _) has one candidate, so no clause choicepoint is pushed; its
    # cut must still stop at the call and leave s/1 and ';' alone.
    program = parse_program(
        "s(1). s(2). p(1, a) :- !. p(2, b). r(Y) :- s(Y), p(1, _).",
        dialect="prolog",
    )
    for text, expected in [
        ("r(Y).", ["Y = 1", "Y = 2"]),
        ("p(1, Y) ; Y = z.", ["Y = a", "Y = z"]),
    ]:
        query = parse_query(text, dialect="prolog")
        sols = Engine(program).solve(query.goal, query.answer_vars)
        assert [s.render() for s in sols] == expected


def test_index_under_depth_limit():
    program = "n(0). n(s(X)) :- n(X)."
    assert collect(program, "n(s(s(0))).", depth_limit=2) == ([], "limited")
    assert collect(program, "n(s(s(0))).", depth_limit=3) == (["true"], "exhausted")
    # Once bound, the argument selects one clause per level; unbound, both.
    assert collect(program, "n(X).", depth_limit=2) == (
        ["X = 0", "X = s(0)"], "limited")


# The first argument of a fact: None is a variable, otherwise a source
# literal.  Keys that look alike in Python (1, 1.0, '1') must stay apart.
FIRST_ARGS = [None, "1", "1.0", "2", "'1'", "a", "b", "f(a)", "f(b)", "g(a)"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    table=st.lists(st.sampled_from(FIRST_ARGS), min_size=1, max_size=12),
    query=st.sampled_from(FIRST_ARGS),
    through_binding=st.booleans(),
)
def test_index_matches_a_plain_filter(table, query, through_binding):
    text = " ".join(
        "p(%s, %d)." % ("X" if arg is None else arg, i)
        for i, arg in enumerate(table)
    )
    engine = Engine(parse_program(text))
    if query is None:
        goal = "p(K, N)."
    elif through_binding:
        goal = "K = %s, p(K, N)." % query
    else:
        goal = "p(%s, N)." % query
    parsed = parse_query(goal)
    found = [s.assignments["N"].value
             for s in engine.solve(parsed.goal, parsed.answer_vars)]
    expected = [i for i, arg in enumerate(table)
                if arg is None or query is None or arg == query]
    assert found == expected


# ---------------------------------------------------------------------------
# The names the benchmark times as layers

def test_solver_calls_the_wrapped_module_globals(monkeypatch):
    calls = {"copies": 0, "heads_ok": 0}
    copy, head = mup.engine.fresh_rename, mup.engine._kunify

    def counting_copy(*args):
        calls["copies"] += 1
        return copy(*args)

    def counting_head(*args):
        values = head(*args)
        calls["heads_ok"] += values is not None
        return values

    monkeypatch.setattr(mup.engine, "fresh_rename", counting_copy)
    monkeypatch.setattr(mup.engine, "_kunify", counting_head)
    result = Engine(parse_program(NREV)).run_query(
        "nrev([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], R).")
    assert [s.render() for s in result.solutions] == [
        "R = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]"]
    assert calls["copies"] > 0 and calls["heads_ok"] > 0
    assert calls["copies"] <= calls["heads_ok"]
