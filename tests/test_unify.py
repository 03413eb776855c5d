"""Unifier property suite against an independent Robinson reference."""

import random

import pytest

from mup.kernel import Bindings, unify
from mup.terms import Compound, Const, Num, fresh_var

from helpers import (
    cells,
    random_term_pair,
    ref_apply,
    ref_unify,
    same_cells,
    term_equal,
)


def kernel_apply(term, bindings):
    return bindings.resolve(term)


def test_unify_examples():
    b = Bindings()
    x = fresh_var("X")
    assert unify(x, Const("a"), b)
    assert b.deref(x) == Const("a")

    b = Bindings()
    x, y = fresh_var("X"), fresh_var("Y")
    assert unify(
        Compound("f", (x, Const("b"))), Compound("f", (Const("a"), y)), b
    )
    assert b.deref(x) == Const("a") and b.deref(y) == Const("b")

    b = Bindings()
    assert not unify(
        Compound("f", (Const("a"),)), Compound("g", (Const("a"),)), b
    )
    assert b == []

    b = Bindings()
    x = fresh_var("X")
    assert not unify(x, Compound("f", (x,)), b, occurs_check=True)

    b = Bindings()
    x, y = fresh_var("X"), fresh_var("Y")
    assert not unify(
        Compound("p", (x, x)),
        Compound("p", (y, Compound("g", (y,)))),
        b,
        occurs_check=True,
    )
    assert b == [] and x.ref is None and y.ref is None


@pytest.mark.parametrize("occurs_check", [True, False])
def test_agreement_with_reference_unifier(occurs_check):
    rng = random.Random(20260811)
    checked = 0
    for _ in range(1000):
        shared = [fresh_var(n) for n in ("X", "Y", "Z")]
        t, s = random_term_pair(rng, shared)
        ref = ref_unify(t, s, occurs_check=True)
        if not occurs_check and ref is None and ref_unify(t, s) is not None:
            # Divergent only through cycles; skip under no-occurs-check
            # (cyclic stores are out of contract).
            continue
        b = Bindings()
        before_cells = cells(t, s)
        before_trail = list(b)
        ok = unify(t, s, b, occurs_check=occurs_check)
        assert ok == (ref is not None)
        if ok:
            # Both unifiers must equalize the terms...
            left = kernel_apply(t, b)
            right = kernel_apply(s, b)
            assert left == right
            # ...and produce the same result up to variable renaming.
            assert term_equal(left, ref_apply(t, ref), {})
        else:
            # Failure purity: trail and every involved cell as before.
            assert same_cells(before_cells)
            assert b == before_trail
        checked += 1
    assert checked >= 900


def test_mgu_is_most_general():
    # Any other unifier factors through the computed one: applying the
    # reference unifier's substitution AFTER ours must not change terms
    # already equalized by ours (checked via instantiation ordering).
    rng = random.Random(7)
    for _ in range(300):
        shared = [fresh_var(n) for n in ("X", "Y")]
        t, s = random_term_pair(rng, shared)
        ref = ref_unify(t, s, occurs_check=True)
        if ref is None:
            continue
        b = Bindings()
        assert unify(t, s, b, occurs_check=True)
        ours = kernel_apply(t, b)
        theirs = ref_apply(t, ref)
        # Equal up to renaming in both directions = equally general.
        assert term_equal(ours, theirs, {})
        assert term_equal(theirs, ours, {})


def test_symmetry_of_success():
    rng = random.Random(99)
    for _ in range(500):
        shared = [fresh_var(n) for n in ("X", "Y", "Z")]
        t, s = random_term_pair(rng, shared)
        b1 = Bindings()
        b2 = Bindings()
        r1 = unify(t, s, b1, occurs_check=True)
        first = kernel_apply(t, b1)
        # Bindings live in the variables: undo the first side before the
        # second, or the second would only see terms already made equal.
        b1.undo_to(0)
        r2 = unify(s, t, b2, occurs_check=True)
        assert r1 == r2
        if r1:
            assert term_equal(first, kernel_apply(t, b2), {})


def test_failure_purity_on_partially_bound_store():
    b = Bindings()
    x, y, z = fresh_var("X"), fresh_var("Y"), fresh_var("Z")
    assert unify(x, Compound("f", (y,)), b)
    snapshot_cells = cells(x, y, z)
    snapshot_trail = list(b)
    assert not unify(
        Compound("g", (x, z)),
        Compound("g", (Compound("f", (Num(1),)), Num(2), Num(3))),
        b,
    )
    assert same_cells(snapshot_cells)
    assert b == snapshot_trail


def test_numeric_classes_do_not_mix():
    b = Bindings()
    assert not unify(Num(3), Num(3.0), b)
    assert unify(Num(3.0), Num(3.0), b)
