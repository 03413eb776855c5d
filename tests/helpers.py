"""Shared test utilities: AST equality up to renaming, random generators,
and an independent reference unifier (Robinson's algorithm over immutable
substitutions) used as the ground truth for the unifier property suite.
"""

import random

from mup.syntax import Clause, TRUE
from mup.terms import Compound, Const, Num, Var, fresh_var, mk_list

# ---------------------------------------------------------------------------
# Structural equality up to a bijective renaming of variables


def term_equal(a, b, varmap):
    """Whether terms ``a`` and ``b`` (goals among them) are equal up to
    renaming; ``varmap`` collects the renaming, a dict id -> id."""
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is Var:
        if a.id in varmap:
            return varmap[a.id] == b.id
        if b.id in varmap.values():
            return False
        varmap[a.id] = b.id
        return True
    if ta is Const:
        return a is b
    if ta is Num:
        return type(a.value) is type(b.value) and a.value == b.value
    if a.functor != b.functor or len(a.args) != len(b.args):
        return False
    return all(term_equal(x, y, varmap) for x, y in zip(a.args, b.args))


def cells(*terms):
    """Each variable reachable from ``terms``, through arguments and
    bindings, paired with its current ``ref``."""
    seen = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if type(t) is Var:
            if id(t) not in seen:
                seen[id(t)] = (t, t.ref)
                if t.ref is not None:
                    stack.append(t.ref)
        elif type(t) is Compound:
            stack.extend(t.args)
    return list(seen.values())


def same_cells(snapshot):
    """True iff every variable of a ``cells`` snapshot holds the same ref."""
    return all(var.ref is ref for var, ref in snapshot)


def clause_equal(a, b):
    varmap = {}
    return term_equal(a.head, b.head, varmap) and term_equal(a.body, b.body, varmap)


# ---------------------------------------------------------------------------
# Random AST generator (stays within the printable surface syntax)

_ATOMS = ("foo", "bar", "baz", "a", "b", "c", "it's", "two words", "Quoted")
_FUNCTORS = ("f", "g", "h", "node", "pair")
_ARITH = ("+", "-", "*", "/", "//", "mod")


class AstGen:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.vars = {}

    def reset_scope(self):
        self.vars = {}

    def var(self):
        name = self.rng.choice(("X", "Y", "Z", "Acc", "_V0", "_Tail"))
        if name not in self.vars:
            self.vars[name] = fresh_var(name)
        return self.vars[name]

    def atom(self):
        return Const(self.rng.choice(_ATOMS))

    def num(self):
        if self.rng.random() < 0.5:
            return Num(self.rng.randint(-20, 20))
        return Num(self.rng.choice((0.5, 3.14, 2.0, 1e-05, -1.25)))

    def term(self, depth=3):
        r = self.rng.random()
        if depth <= 0 or r < 0.25:
            return self.rng.choice((self.var, self.atom, self.num))()
        if r < 0.45:
            functor = self.rng.choice(_FUNCTORS)
            arity = self.rng.randint(1, 3)
            return Compound(
                functor, tuple(self.term(depth - 1) for _ in range(arity))
            )
        if r < 0.6:
            items = [self.term(depth - 1) for _ in range(self.rng.randint(0, 3))]
            tail = self.var() if (items and self.rng.random() < 0.3) else None
            return mk_list(items, tail)
        if r < 0.75:
            op = self.rng.choice(_ARITH)
            return Compound(op, (self.term(depth - 1), self.term(depth - 1)))
        if r < 0.8:
            return Compound("-", (self.term(depth - 1),))
        return self.rng.choice((self.var, self.atom, self.num))()

    def callable_term(self, depth=2):
        functor = self.rng.choice(_FUNCTORS + ("p", "q"))
        if self.rng.random() < 0.2:
            return Const(functor)
        arity = self.rng.randint(1, 3)
        return Compound(functor, tuple(self.term(depth) for _ in range(arity)))

    def goal(self, depth=3):
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            if r < 0.05:
                return TRUE
            if self.rng.random() < 0.5:
                return Compound("=", (self.term(2), self.term(2)))
            return self.callable_term()
        if r < 0.6:
            functor = ","
        elif r < 0.85:
            functor = "#"
        else:
            functor = ";"
        return Compound(functor, (self.goal(depth - 1), self.goal(depth - 1)))

    def clause(self):
        self.reset_scope()
        head = self.callable_term()
        if self.rng.random() < 0.25:
            return Clause(head, TRUE)
        return Clause(head, self.goal(3))


# ---------------------------------------------------------------------------
# Reference unifier: textbook Robinson algorithm on immutable substitutions
# (independent of the kernel: no trail, no in-place update)


def ref_walk(term, subst):
    while type(term) is Var and term.id in subst:
        term = subst[term.id]
    return term


def ref_apply(term, subst):
    term = ref_walk(term, subst)
    if type(term) is Compound:
        return Compound(term.functor, tuple(ref_apply(a, subst) for a in term.args))
    return term


def ref_occurs(vid, term, subst):
    term = ref_walk(term, subst)
    if type(term) is Var:
        return term.id == vid
    if type(term) is Compound:
        return any(ref_occurs(vid, a, subst) for a in term.args)
    return False


def ref_unify(t, s, subst=None, occurs_check=False):
    """Robinson unification; returns a substitution dict or None."""
    if subst is None:
        subst = {}
    t = ref_walk(t, subst)
    s = ref_walk(s, subst)
    if type(t) is Var and type(s) is Var and t.id == s.id:
        return subst
    if type(t) is Var:
        if occurs_check and ref_occurs(t.id, s, subst):
            return None
        new = dict(subst)
        new[t.id] = s
        return new
    if type(s) is Var:
        return ref_unify(s, t, subst, occurs_check)
    if type(t) is Const and type(s) is Const:
        return subst if t.name == s.name else None
    if type(t) is Num and type(s) is Num:
        if type(t.value) is type(s.value) and t.value == s.value:
            return subst
        return None
    if type(t) is Compound and type(s) is Compound:
        if t.functor != s.functor or len(t.args) != len(s.args):
            return None
        for a, b in zip(t.args, s.args):
            subst = ref_unify(a, b, subst, occurs_check)
            if subst is None:
                return None
        return subst
    return None


def random_term_pair(rng, shared_vars):
    """A pair of terms over a shared variable pool, biased to unify often."""
    gen = AstGen(rng.randint(0, 10**9))
    gen.vars = {v.name: v for v in shared_vars}
    left = gen.term(3)
    if rng.random() < 0.4:
        # Structurally related right side: rename some leaves of the left.
        right = _mutate(gen, left, rng)
    else:
        right = gen.term(3)
    return left, right


def _mutate(gen, term, rng):
    if type(term) is Compound and rng.random() < 0.8:
        args = tuple(_mutate(gen, a, rng) for a in term.args)
        return Compound(term.functor, args)
    if rng.random() < 0.4:
        return gen.var()
    if rng.random() < 0.2:
        return gen.term(1)
    return term
