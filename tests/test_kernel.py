"""Term kernel tests: dereferencing, the trail, unification, resolve."""

import random

import pytest

from mup import kernel

# Every test takes the kernel module as ``k``; the one parameter keeps the
# test ids ``name[python]``.
pytestmark = pytest.mark.parametrize("k", [kernel], ids=["python"])


def test_deref_single_binding(k):
    x = k.Var(1, "X")
    bmap = {1: k.Const("a")}
    assert k.deref(x, bmap) == k.Const("a")


def test_deref_chain(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bmap = {1: y, 2: k.Num(3)}
    assert k.deref(x, bmap) == k.Num(3)


def test_deref_is_shallow(k):
    x = k.Var(1, "X")
    term = k.Compound("f", (x,))
    bmap = {1: k.Const("a")}
    out = k.deref(term, bmap)
    assert out is term  # arguments untouched


def test_deref_idempotent(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bmap = {1: y}
    once = k.deref(x, bmap)
    assert k.deref(once, bmap) == once


def test_resolve_partial(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    term = k.Compound("f", (x, y))
    out = k.resolve(term, {1: k.Const("a")})
    assert out == k.Compound("f", (k.Const("a"), y))


def test_resolve_identity_on_ground(k):
    assert k.resolve(k.Const("a"), {}) == k.Const("a")


def test_resolve_composes_single_steps(k):
    # Oracle: composing the two single-variable substitutions by hand.
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    term = k.Compound("p", (x,))
    step1 = k.resolve(term, {1: k.Compound("g", (y,))})
    step2 = k.resolve(step1, {2: k.Const("b")})
    combined = k.resolve(term, {1: k.Compound("g", (y,)), 2: k.Const("b")})
    assert combined == step2
    assert combined == k.Compound("p", (k.Compound("g", (k.Const("b"),)),))


def test_resolve_shared_values_but_not_cycles(k):
    from mup.errors import MupError

    x, y, z = k.Var(1, "X"), k.Var(2, "Y"), k.Var(3, "Z")
    g = k.Compound("g", (k.Const("b"),))
    # Y is met twice, once inside each of X's arguments: shared, not cyclic.
    bmap = {1: k.Compound("f", (y, k.Compound("h", (y,)))), 2: g}
    assert k.resolve(x, bmap) == k.Compound("f", (g, k.Compound("h", (g,))))
    for bmap in ({1: k.Compound("f", (x,))},  # X = f(X)
                 {1: k.Compound("f", (y,)), 2: z, 3: k.Compound("g", (x,))}):
        with pytest.raises(MupError, match="cyclic"):
            k.resolve(x, bmap)


def test_resolve_idempotent_on_fixed_bindings(k):
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    bmap = {1: k.Compound("g", (y,)), 2: k.Num(1)}
    term = k.Compound("f", (x, y, k.Const("c")))
    once = k.resolve(term, bmap)
    assert k.resolve(once, bmap) == once


def test_bind_undo_roundtrip(k):
    bmap, trail = {}, []
    x = k.Var(1, "X")
    mark = len(trail)
    k.bind(bmap, trail, x, k.Const("a"))
    assert bmap == {1: k.Const("a")}
    k.undo_to(bmap, trail, mark)
    assert bmap == {} and trail == []


def test_nested_checkpoints(k):
    bmap, trail = {}, []
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    m1 = len(trail)
    k.bind(bmap, trail, x, k.Const("a"))
    m2 = len(trail)
    k.bind(bmap, trail, y, k.Const("b"))
    k.undo_to(bmap, trail, m2)
    assert bmap == {1: k.Const("a")}
    k.undo_to(bmap, trail, m1)
    assert bmap == {}


def test_trail_soundness_random_interleaving(k):
    # Replaying only the non-undone binds must give the same map.  The
    # shadow list mirrors the trail (one entry per bind), so truncating it
    # at a mark is an independent model of undo_to.
    rng = random.Random(4)
    for _ in range(30):
        bmap, trail = {}, []
        shadow = []  # (vid, value) in bind order; index-aligned with trail
        markstack = [0]
        for step in range(1000):
            r = rng.random()
            if r < 0.55:
                vid = rng.randint(1, 30)
                if vid not in bmap:
                    value = k.Num(step)
                    k.bind(bmap, trail, k.Var(vid, "V"), value)
                    shadow.append((vid, value))
            elif r < 0.75:
                markstack.append(len(trail))
            else:
                mark = markstack.pop() if len(markstack) > 1 else 0
                k.undo_to(bmap, trail, mark)
                del shadow[mark:]
        replayed = {}
        for vid, value in shadow:
            replayed[vid] = value
        assert bmap == replayed


def test_unify_var_const(k):
    bmap, trail = {}, []
    x = k.Var(1, "X")
    assert k.unify(x, k.Const("a"), bmap, trail, False)
    assert bmap == {1: k.Const("a")}


def test_unify_structural(k):
    bmap, trail = {}, []
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    t = k.Compound("f", (x, k.Const("b")))
    s = k.Compound("f", (k.Const("a"), y))
    assert k.unify(t, s, bmap, trail, False)
    assert k.deref(x, bmap) == k.Const("a")
    assert k.deref(y, bmap) == k.Const("b")


def test_unify_functor_clash(k):
    bmap, trail = {}, []
    assert not k.unify(
        k.Compound("f", (k.Const("a"),)),
        k.Compound("g", (k.Const("a"),)),
        bmap, trail, False,
    )
    assert bmap == {} and trail == []


def test_unify_occurs_check(k):
    bmap, trail = {}, []
    x = k.Var(1, "X")
    assert not k.unify(x, k.Compound("f", (x,)), bmap, trail, True)
    assert bmap == {}


def test_unify_occurs_check_through_bindings(k):
    # X=Y then Y=g(Y) must cycle: hand-run of Robinson's algorithm.
    bmap, trail = {}, []
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    t = k.Compound("p", (x, x))
    s = k.Compound("p", (y, k.Compound("g", (y,))))
    assert not k.unify(t, s, bmap, trail, True)
    assert bmap == {} and trail == []


def test_unify_failure_restores_partial_work(k):
    bmap, trail = {}, []
    x, y = k.Var(1, "X"), k.Var(2, "Y")
    k.bind(bmap, trail, y, k.Const("keep"))
    before = dict(bmap)
    t = k.Compound("f", (x, k.Const("a")))
    s = k.Compound("f", (k.Const("c"), k.Const("b")))
    assert not k.unify(t, s, bmap, trail, False)
    assert bmap == before
    assert trail == [2]


def test_unify_numbers_by_class(k):
    bmap, trail = {}, []
    assert not k.unify(k.Num(3), k.Num(3.0), bmap, trail, False)
    assert k.unify(k.Num(3), k.Num(3), bmap, trail, False)
    assert k.unify(k.Num(0.5), k.Num(0.5), bmap, trail, False)


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
    bmap = {1: a}
    resolved = k.resolve(k.Compound(".", (k.Num(-1), x)), bmap)
    assert resolved == k.Compound(".", (k.Num(-1), a))

