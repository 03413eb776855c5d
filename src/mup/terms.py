"""Fresh variables, lists and solutions.

The term classes (Var, Const, Num, Compound) and the binding store
(Bindings) live in ``mup.kernel``.  The term classes are re-exported
here for the modules that build and print terms (``syntax``,
``builtins``, ``transpile``, ``oracle``); ``compiled`` and ``engine``
import them from the kernel directly.
"""

import itertools

from mup import kernel
from mup.kernel import Compound, Const, Num, Var, _var_ids

EMPTY_LIST = "[]"
CONS = "."


def fresh_var(name="_"):
    """Allocate a variable with a new, never-reused identifier."""
    return Var(next(_var_ids), name)


def mk_list(items, tail=None):
    """Build a cons-list term from ``items`` ending in ``tail`` (default [])."""
    result = tail if tail is not None else Const(EMPTY_LIST)
    for item in reversed(list(items)):
        result = Compound(CONS, (item, result))
    return result


class Solution:
    """One answer: query variable name -> fully resolved term.

    The domain is exactly the query's free variables; unbound variables in
    the range stay as Vars and are rendered canonically.
    """

    __slots__ = ("assignments",)

    def __init__(self, assignments):
        self.assignments = dict(assignments)

    @classmethod
    def from_bindings(cls, answer_vars):
        """The current values of ``answer_vars``, resolved."""
        copies = {}
        return cls((v.name, kernel.resolve(v, copies)) for v in answer_vars)

    def canonical_key(self):
        """Hashable form, invariant under renaming of unbound variables.

        Unbound variables are numbered by first appearance while scanning
        assignments in order, so structurally equal solutions from
        different runs (or different engines) compare equal.
        """
        numbering = {}
        key = []
        for name, term in self.assignments.items():
            # Flat preorder tokens (with arities, so the encoding is
            # injective); iterative, so long list spines need no host stack.
            tokens = []
            stack = [term]
            while stack:
                t = stack.pop()
                tt = type(t)
                if tt is Var:
                    tokens += ("var", numbering.setdefault(t.id, len(numbering)))
                elif tt is Const:
                    tokens += ("const", t.name)
                elif tt is Num:
                    tokens += ("num", type(t.value).__name__, t.value)
                else:
                    tokens += ("compound", t.functor, len(t.args))
                    stack.extend(reversed(t.args))
            key.append((name, tuple(tokens)))
        return tuple(key)

    def __eq__(self, other):
        return (
            isinstance(other, Solution)
            and other.canonical_key() == self.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def render(self):
        """Printable form: ``X = t1, Y = t2`` (``true`` if nothing to show).

        Assignments of a variable to itself (i.e. the variable stayed
        free) are omitted, matching conventional toplevel output.
        """
        from mup.syntax import pretty

        display = _display_assignments(self.assignments)
        parts = [
            "%s = %s" % (name, pretty(term))
            for name, term in display
        ]
        return ", ".join(parts) if parts else "true"

    def __repr__(self):
        return "Solution(%s)" % (self.render(),)


def _display_assignments(assignments):
    """Assignments worth printing, with unbound variables given stable names.

    An unbound variable that is itself an answer variable displays under
    its own query name; any other unbound variable gets ``_G0``, ``_G1``,
    ... avoiding collisions with query names.
    """
    own_name = {}
    for name, term in assignments.items():
        if type(term) is Var and term.name == name:
            own_name.setdefault(term.id, name)
    taken = set(assignments)
    renames = {}
    counter = itertools.count()

    def display_var(v):
        if v.id in own_name:
            return Var(v.id, own_name[v.id])
        if v.id not in renames:
            while True:
                candidate = "_G%d" % next(counter)
                if candidate not in taken:
                    break
            renames[v.id] = Var(v.id, candidate)
        return renames[v.id]

    out = []
    for name, term in assignments.items():
        if type(term) is Var and own_name.get(term.id) == name:
            continue  # variable stayed free
        out.append((name, kernel.rebuild(term, display_var)))
    return out

