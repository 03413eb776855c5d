import pytest

from mup.errors import InternalError
from mup.compiled import build_body, match_head
from mup.syntax import Clause, parse_program, subst_goal
from mup.kernel import Bindings
from mup.terms import (
    Compound,
    Const,
    Num,
    Solution,
    Var,
    fresh_var,
    mk_list,
)

from helpers import clause_equal


def test_fresh_var_ids_unique():
    seen = {fresh_var("X").id for _ in range(500)}
    assert len(seen) == 500


def test_mk_list():
    t = mk_list([Const("a"), Const("b")])
    assert t == Compound(
        ".", (Const("a"), Compound(".", (Const("b"), Const("[]"))))
    )
    tail = fresh_var("T")
    t = mk_list([Const("a")], tail)
    assert t == Compound(".", (Const("a"), tail))


def test_bindings_checkpoint_undo():
    b = Bindings()
    x, y = fresh_var("X"), fresh_var("Y")
    m1 = b.checkpoint()
    b.bind(x, Const("a"))
    m2 = b.checkpoint()
    b.bind(y, Const("b"))
    b.undo_to(m2)
    assert b.deref(x) == Const("a")
    assert b.deref(y) is y
    b.undo_to(m1)
    assert b.deref(x) is x


def test_bindings_stale_mark_rejected():
    b = Bindings()
    x = fresh_var("X")
    b.bind(x, Const("a"))
    mark = b.checkpoint()
    b.undo_to(0)
    with pytest.raises(InternalError):
        b.undo_to(mark)
    with pytest.raises(InternalError):
        b.undo_to(-1)


def test_bind_undo_cycles_restore_initial_map():
    b = Bindings()
    seed = fresh_var("S")
    b.bind(seed, Const("base"))
    initial = list(b)
    temps = []
    for i in range(1000):
        mark = b.checkpoint()
        temps.append(fresh_var("T"))
        b.bind(temps[-1], Num(i))
        b.undo_to(mark)
    assert b == initial == [seed] and seed.ref == Const("base")
    assert all(t.ref is None for t in temps)


def test_solution_render_and_canonical():
    x = fresh_var("X")
    s1 = Solution({"M": Num(9)})
    assert s1.render() == "M = 9"
    s2 = Solution({"X": Compound("f", (fresh_var("_"),))})
    s3 = Solution({"X": Compound("f", (fresh_var("_"),))})
    assert s2 == s3  # same shape, different unbound variables
    free = Solution({"X": x})
    assert free.render() == "true"  # X stayed free: nothing to print


def test_solution_shared_free_variable_names():
    y = fresh_var("Y")
    sol = Solution({"X": y, "Y": y})
    # X aliases the still-free answer variable Y.
    assert sol.render() == "X = Y"


def test_solution_fresh_name_avoids_query_names():
    stray = fresh_var("_")
    sol = Solution({"_G0": Const("a"), "X": Compound("f", (stray,))})
    text = sol.render()
    assert "_G0 = a" in text
    assert "f(_G1)" in text  # _G0 taken by the query


def test_long_list_answer_keys_and_renders():
    def answer(n):
        return Solution({"L": mk_list([Num(i) for i in range(n)], fresh_var("_"))})

    a, b = answer(5000), answer(5000)
    assert a == b and hash(a) == hash(b)  # tail variables differ, shape equal
    assert a != answer(4999)
    assert a.render().startswith("L = [0, 1, 2,")
    assert a.render().endswith(", 4999|_G0]")


def fresh_rename(clause):
    """The clause renamed apart: its head matched with a call of fresh
    variables, then its body built, both with the bindings made applied."""
    head = clause.head
    call = head
    if type(head) is Compound:
        call = Compound(head.functor, [fresh_var("_") for _ in head.args])
    store = Bindings()
    values = match_head(clause, call, store, False)
    body = build_body(clause, values)
    bound = {var.id: store.resolve(var) for var in store}
    renamed = Clause(store.resolve(call), subst_goal(body, bound))
    store.undo_to(0)
    return renamed


def test_fresh_rename_structure_preserved():
    program = parse_program("p(X) :- q(X).")
    clause = program.clauses[0]
    renamed = fresh_rename(clause)
    assert clause_equal(clause, renamed)
    old = clause.head.args[0]
    new = renamed.head.args[0]
    assert old.id != new.id
    assert renamed.body.args[0].id == new.id  # sharing kept


def test_fresh_rename_twice_disjoint():
    program = parse_program("p(X,Y) :- q(X), q(Y).")
    clause = program.clauses[0]
    first = fresh_rename(clause)
    second = fresh_rename(clause)
    ids_first = {first.head.args[0].id, first.head.args[1].id}
    ids_second = {second.head.args[0].id, second.head.args[1].id}
    assert not ids_first & ids_second


def test_fresh_rename_ground_clause_identical():
    program = parse_program("p(a, 1).")
    clause = program.clauses[0]
    renamed = fresh_rename(clause)
    assert renamed.head == clause.head


def test_num_identity_vs_floats():
    assert Num(3) != Num(3.0)
    assert Num(3) == Num(3)
    assert Var(7, "A") == Var(7, "B")  # identity is the id, not the name
    assert Var(7, "A") != Var(8, "A")
