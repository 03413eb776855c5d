"""Term store: the binding trail, fresh variables, solutions.

The term classes themselves (Var, Const, Num, Compound) come from
``mup.kernel`` and are re-exported here; everything else in the package
should import them from this module.
"""

import itertools

from mup import kernel
from mup.errors import InternalError
from mup.kernel import Compound, Const, Num, Var

EMPTY_LIST = "[]"
CONS = "."

_var_ids = itertools.count(1)


def fresh_var(name="_"):
    """Allocate a variable with a new, never-reused identifier."""
    return Var(next(_var_ids), name)


def mk_list(items, tail=None):
    """Build a cons-list term from ``items`` ending in ``tail`` (default [])."""
    result = tail if tail is not None else Const(EMPTY_LIST)
    for item in reversed(list(items)):
        result = Compound(CONS, (item, result))
    return result


class Bindings:
    """The trail of the variables bound in their cells, for cheap undo.

    Owned by a single engine instance; never shared across threads.
    Checkpoint marks are trail positions: undoing to a mark unbinds
    exactly the variables bound after it.  Only a run of the engine trails
    conditionally; every binding made outside one is trailed.
    """

    __slots__ = ("trail",)

    def __init__(self):
        self.trail = kernel.Trail()

    def checkpoint(self):
        """Return a mark capturing the current binding state."""
        return len(self.trail)

    def undo_to(self, mark):
        """Restore the state captured by ``mark``.

        A mark that was already undone past (or that never came from this
        store's current history) is rejected.
        """
        if not 0 <= mark <= len(self.trail):
            raise InternalError("stale or foreign checkpoint mark: %r" % (mark,))
        kernel.undo_to(self.trail, mark)

    def bind(self, var, term):
        kernel.bind(self.trail, var, term)

    def deref(self, term):
        """Resolve the outermost variable chain only."""
        return kernel.deref(term)

    def resolve(self, term):
        """Resolve bound variables at every depth; unbound ones remain."""
        return kernel.resolve(term)


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
    from mup.syntax import _remake, rebuild  # mup.syntax imports this module

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
        out.append((name, rebuild(term, display_var, _remake)))
    return out

