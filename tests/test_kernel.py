"""Term kernel tests: dereferencing, the trail, unification, resolve."""

import copy
import pickle
import random

import pytest

from mup import kernel

# Every test takes the kernel module as ``k``; the one parameter keeps the
# test ids ``name[python]``.
pytestmark = pytest.mark.parametrize("k", [kernel], ids=["python"])


def bound(pairs):
    """Bind each (variable, value) pair in order; returns the trail."""
    trail = kernel.Bindings()
    for var, value in pairs:
        kernel.bind(trail, var, value)
    return trail


def test_deref_single_binding(k):
    x = k.Var(1, "X")
    bound([(x, k.Const("a"))])
    assert k.deref(x) == k.Const("a")


def test_deref_chain(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bound([(x, y), (y, k.Num(3))])
    assert k.deref(x) == k.Num(3)


def test_deref_is_shallow(k):
    x = k.Var(1, "X")
    term = k.Compound("f", (x,))
    bound([(x, k.Const("a"))])
    out = k.deref(term)
    assert out is term  # arguments untouched


def test_deref_idempotent(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bound([(x, y)])
    once = k.deref(x)
    assert k.deref(once) == once


def test_resolve_partial(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    term = k.Compound("f", (x, y))
    bound([(x, k.Const("a"))])
    out = k.resolve(term)
    assert out == k.Compound("f", (k.Const("a"), y))


def test_resolve_identity_on_ground(k):
    assert k.resolve(k.Const("a")) == k.Const("a")


def test_resolve_composes_single_steps(k):
    # Oracle: composing the two single-variable substitutions by hand.
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    term = k.Compound("p", (x,))
    trail = bound([(x, k.Compound("g", (y,)))])
    step1 = k.resolve(term)
    k.undo_to(trail, 0)
    bound([(y, k.Const("b"))])
    step2 = k.resolve(step1)
    bound([(x, k.Compound("g", (y,)))])
    combined = k.resolve(term)
    assert combined == step2
    assert combined == k.Compound("p", (k.Compound("g", (k.Const("b"),)),))


def test_resolve_shared_values_but_not_cycles(k):
    from mup.errors import MupError

    x, y, z = k.Var(1, "X"), k.Var(2, "Y"), k.Var(3, "Z")
    g = k.Compound("g", (k.Const("b"),))
    # Y is met twice, once inside each of X's arguments: shared, not cyclic.
    trail = bound([(x, k.Compound("f", (y, k.Compound("h", (y,))))), (y, g)])
    assert k.resolve(x) == k.Compound("f", (g, k.Compound("h", (g,))))
    k.undo_to(trail, 0)
    for pairs in ([(x, k.Compound("f", (x,)))],  # X = f(X)
                  [(x, k.Compound("f", (y,))), (y, z), (z, k.Compound("g", (x,)))]):
        trail = bound(pairs)
        with pytest.raises(MupError, match="cyclic"):
            k.resolve(x)
        k.undo_to(trail, 0)


def test_resolve_shares_what_it_leaves_unchanged(k):
    from mup.errors import MupError
    from mup.syntax import free_goal_vars

    ground = k.Compound("f", (k.Const("a"), k.Compound("g", (k.Num(1),))))
    assert k.resolve(ground) is ground
    assert k.resolve(ground, {}) is ground
    x, y, z = k.Var(1, "X"), k.Var(2, "Y"), k.Var(3, "Z")
    x.ref = k.Compound("f", (x,))  # X = f(X), bound without the occurs check
    with pytest.raises(MupError, match="cannot resolve a cyclic term"):
        k.resolve(k.Compound("p", (x,)))
    x.ref = None
    # A bound variable stands for its value's variables, each listed once,
    # where it first occurs.
    bound([(y, k.Compound("g", (z, x)))])
    goal = k.Compound(",", (k.Compound("p", (z, y)), k.Compound("q", (x, z, y))))
    assert [v.name for v in free_goal_vars(goal)] == ["Z", "X"]


def test_resolve_idempotent_on_fixed_bindings(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bound([(x, k.Compound("g", (y,))), (y, k.Num(1))])
    term = k.Compound("f", (x, y, k.Const("c")))
    once = k.resolve(term)
    assert k.resolve(once) == once


def test_bind_undo_roundtrip(k):
    trail = k.Bindings()
    x = k.Var(1, "X")
    mark = len(trail)
    k.bind(trail, x, k.Const("a"))
    assert x.ref == k.Const("a") and trail == [x]
    k.undo_to(trail, mark)
    assert x.ref is None and trail == []


def test_nested_checkpoints(k):
    trail = k.Bindings()
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    m1 = len(trail)
    k.bind(trail, x, k.Const("a"))
    m2 = len(trail)
    k.bind(trail, y, k.Const("b"))
    k.undo_to(trail, m2)
    assert x.ref == k.Const("a") and y.ref is None
    k.undo_to(trail, m1)
    assert x.ref is None and y.ref is None


def test_trail_soundness_random_interleaving(k):
    # Replaying only the non-undone binds must give the same cells.  The
    # shadow list mirrors the trail (one entry per bind), so truncating it
    # at a mark is an independent model of undo_to.
    rng = random.Random(4)
    for _ in range(30):
        trail = k.Bindings()
        cells = {vid: k.Var(vid, "V") for vid in range(1, 31)}
        shadow = []  # (vid, value) in bind order; index-aligned with trail
        markstack = [0]
        for step in range(1000):
            r = rng.random()
            if r < 0.55:
                vid = rng.randint(1, 30)
                if cells[vid].ref is None:
                    value = k.Num(step)
                    k.bind(trail, cells[vid], value)
                    shadow.append((vid, value))
            elif r < 0.75:
                markstack.append(len(trail))
            else:
                mark = markstack.pop() if len(markstack) > 1 else 0
                k.undo_to(trail, mark)
                del shadow[mark:]
        replayed = {}
        for vid, value in shadow:
            replayed[vid] = value
        assert {vid: v.ref for vid, v in cells.items() if v.ref is not None} == replayed
        assert [v.id for v in trail] == [vid for vid, _ in shadow]


def test_unify_var_const(k):
    trail = k.Bindings()
    x = k.Var(1, "X")
    assert k.unify(x, k.Const("a"), trail, False)
    assert x.ref == k.Const("a") and trail == [x]


def test_unify_structural(k):
    trail = k.Bindings()
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    t = k.Compound("f", (x, k.Const("b")))
    s = k.Compound("f", (k.Const("a"), y))
    assert k.unify(t, s, trail, False)
    assert k.deref(x) == k.Const("a")
    assert k.deref(y) == k.Const("b")


def test_unify_functor_clash(k):
    trail = k.Bindings()
    assert not k.unify(
        k.Compound("f", (k.Const("a"),)),
        k.Compound("g", (k.Const("a"),)),
        trail, False,
    )
    assert trail == []


def test_unify_occurs_check(k):
    trail = k.Bindings()
    x = k.Var(1, "X")
    assert not k.unify(x, k.Compound("f", (x,)), trail, True)
    assert x.ref is None and trail == []


def test_unify_occurs_check_through_bindings(k):
    # X=Y then Y=g(Y) must cycle: hand-run of Robinson's algorithm.
    trail = k.Bindings()
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    t = k.Compound("p", (x, x))
    s = k.Compound("p", (y, k.Compound("g", (y,))))
    assert not k.unify(t, s, trail, True)
    assert x.ref is None and y.ref is None and trail == []


def test_unify_failure_restores_partial_work(k):
    trail = k.Bindings()
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    k.bind(trail, y, k.Const("keep"))
    t = k.Compound("f", (x, k.Const("a")))
    s = k.Compound("f", (k.Const("c"), k.Const("b")))
    assert not k.unify(t, s, trail, False)
    assert x.ref is None and y.ref == k.Const("keep")
    assert trail == [y]


def test_unify_numbers_by_class(k):
    trail = k.Bindings()
    assert not k.unify(k.Num(3), k.Num(3.0), trail, False)
    assert k.unify(k.Num(3), k.Num(3), trail, False)
    assert k.unify(k.Num(0.5), k.Num(0.5), trail, False)


def test_deep_list_spines_do_not_recurse(k):
    # Equality, hashing and resolve walk list spines iteratively; 5000
    # elements would overflow any per-cell host recursion.
    def build(n):
        term = k.Const("[]")
        for i in range(n):
            term = k.Compound(".", (k.Num(i), term))
        return term

    a = build(5000)
    b = build(5000)
    assert a == b
    assert hash(a) == hash(b)
    assert not (a == build(4999))
    x = k.Var(1, "X")
    bound([(x, a)])
    resolved = k.resolve(k.Compound(".", (k.Num(-1), x)))
    assert resolved == k.Compound(".", (k.Num(-1), a))



def test_unify_remembers_pairs_past_its_bound(k, monkeypatch):
    # Past ``_PAIRS`` compound pairs, unify skips a pair it met before.
    # That must not change any answer, and it ends on cyclic terms.
    monkeypatch.setattr(k, "_PAIRS", 3)

    def build(items):
        term = k.Const("[]")
        for item in reversed(items):
            term = k.Compound(".", (k.Num(item), term))
        return term

    trail = k.Bindings()
    assert k.unify(build(range(50)), build(range(50)), trail, False)
    assert not k.unify(build(range(50)), build(list(range(49)) + [0]), trail, False)
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    assert k.unify(build(range(50)), k.Compound(".", (x, y)), trail, False)
    assert trail == [y, x]
    k.undo_to(trail, 0)

    # One subterm met twice, against different partners.
    shared = build(range(10))
    assert not k.unify(k.Compound("f", (shared, shared)),
                       k.Compound("f", (build(list(range(9)) + [99]), build(range(10)))),
                       trail, False)

    # Shared subterms: 2^40 paths through each side, 40 distinct pairs.
    a, b = k.Const("z"), k.Const("z")
    for _ in range(40):
        a, b = k.Compound("f", (a, a)), k.Compound("f", (b, b))
    assert k.unify(a, b, trail, False)

    # X = f(X), Y = f(Y), X = Y holds for rational trees; with a second
    # argument a in X's and b in Y's, it fails.
    for tail_x, tail_y, expected in (((), (), True),
                                     ((k.Const("a"),), (k.Const("b"),), False)):
        x, y = k.Var(1, "X"), k.Var(2, "Y")
        bound([(x, k.Compound("f", (x,) + tail_x)), (y, k.Compound("f", (y,) + tail_y))])
        assert k.unify(x, y, trail, False) is expected


def test_copies_and_pickles_keep_the_interned_atoms(k):
    term = k.Compound("f", (k.Const("a"), k.Compound("g", (k.Const("[]"),)), k.Num(1)))
    for back in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
        atom = back(k.Const("a"))
        assert atom is k.Const("a") and atom.name == "a"
        out = back(term)
        assert out.args[0] is k.Const("a")
        assert out.args[1].args[0] is k.Const("[]")
        assert out == term


def test_copies_and_pickles_keep_the_cut(k):
    backs = [copy.copy, copy.deepcopy] + [
        lambda t, protocol=protocol: pickle.loads(pickle.dumps(t, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    goal = k.Compound(",", (k.Const("p"), k.CUT))
    for back in backs:
        assert back(k.CUT) is k.CUT
        assert back(goal).args[1] is k.CUT
        assert back(k.Const("!")) is k.Const("!") is not k.CUT


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_terms_pickle_at_every_protocol(k, protocol):
    x, y = k.Var(5, "X"), k.Var(6, "Y")
    x.ref = k.Compound("f", (x, y, k.Const("a"), k.CUT, k.Num(1), k.Num(1.0)))
    back = pickle.loads(pickle.dumps(x, protocol))
    assert (back.id, back.name) == (5, "X")
    value = back.ref
    assert value.functor == "f" and value.args[0] is back  # the cycle is kept
    assert (value.args[1].id, value.args[1].name, value.args[1].ref) == (6, "Y", None)
    assert value.args[2] is k.Const("a") and value.args[3] is k.CUT
    assert [type(n.value) for n in value.args[4:]] == [int, float]
    assert value.args[4:] == (k.Num(1), k.Num(1.0))
