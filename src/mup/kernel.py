"""Term kernel.

Terms, the two control atoms ``TRUE`` and ``CUT``, the variable id
counter, dereferencing, the binding store, first-order unification and
``rebuild``, the one bottom-up term walk: ``resolve``,
``syntax.free_goal_vars``, ``syntax.subst_goal``, clause compilation
and answer display are each a ``rebuild``.  ``terms``, ``compiled``,
``builtins`` and ``engine`` build on these names.  The engine, the
built-ins and answer display look ``kernel.unify``, ``kernel.undo_to``
and ``kernel.resolve`` up as module attributes at call time, so
``mupbench`` can time them as layers; generated head matchers bind
``unify`` once, through ``compiled._SCOPE``, so the ``kernel.unify``
layer does not count their calls.  A head match does not undo itself:
the engine undoes a failed one inline, through the trail.

Representation notes:

* A variable is a ``Var`` cell.  Its ``ref`` is None while it is
  unbound and its value once bound, as in the WAM (Warren 1983).  Its
  integer id orders and names it: terms compare equal by ids, and
  display names exist only for printing.
* The binding store (``Bindings``) is the trail: it lists bound cells
  in binding order, and undoing to a mark clears every cell it lists
  after the mark.  The trail and its boundary ``hb`` are one store, as
  in the WAM (Warren 1983; Ait-Kaci 1991, section 5.8), and trailing is
  conditional: a binding is trailed only if the cell's id is below
  ``hb``.  While the engine runs, ``hb`` is an id drawn when
  the newest choicepoint was pushed, so a cell made since then is bound
  in place only: backtracking cannot reach it again.  Outside a run
  ``hb`` is ``ALL`` and every binding is trailed.
* An atom is one object per name: ``Const(name)`` returns the atom
  that ``_ATOMS``, the atom table, holds for the name, and makes and
  stores it on a miss, as the WAM's atom table does (Warren 1983;
  Ait-Kaci 1991).  So atoms compare, hash and unify by identity.  The
  table grows with each distinct name read, ``read/1`` included, and
  never shrinks.  ``CUT``, made past the table, is no atom of its
  name; a copy or a pickle of it is ``CUT`` again.
* Lists are ordinary compounds: ``'.'(Head, Tail)`` ending in ``'[]'``.
"""

import itertools
import sys
from operator import is_not

from mup.errors import InternalError, MupError

# A boundary above every variable id: with it, every binding is trailed.
ALL = sys.maxsize

# Compound pairs ``unify`` visits before it starts to remember them.
_PAIRS = 100_000

# The one source of variable ids.
_var_ids = itertools.count(1)

# The atom table: name -> the one atom of that name.
_ATOMS = {}


class Var:
    """A variable cell: ``ref`` is None while unbound, else the value.

    Ids come from ``_var_ids``, so a larger id means a younger cell;
    conditional trailing depends on that order.  A hand-made ``Var``
    whose id is above the counter counts as younger than every
    choicepoint, so a run does not undo its bindings.
    """

    __slots__ = ("id", "name", "ref")

    def __init__(self, id, name):
        self.id = id
        self.name = name
        self.ref = None

    def __eq__(self, other):
        return type(other) is Var and other.id == self.id

    def __hash__(self):
        return hash(self.id)

    def __reduce__(self):  # every pickle protocol, the cell's binding too
        return (Var, (self.id, self.name), (None, {"ref": self.ref}))

    def __repr__(self):
        return "Var(%d, %r)" % (self.id, self.name)


class Const:
    """An atom: ``Const(name)`` is the one atom of that name."""

    __slots__ = ("name",)

    def __new__(cls, name):
        atom = _ATOMS.get(name)
        if atom is None:
            atom = object.__new__(cls)
            atom.name = name
            # Two threads that make the same new atom keep the first stored.
            atom = _ATOMS.setdefault(name, atom)
        return atom

    def __reduce__(self):
        # copy, deepcopy and pickle make an atom again through the table,
        # and keep the cut as itself, by its name in this module.
        if self is CUT:
            return "CUT"
        return (Const, (self.name,))

    def __repr__(self):
        return "Const(%r)" % (self.name,)


# The two control atoms the engine knows by identity.  Every ``true`` is
# ``TRUE``.  Prolog's cut is made past the atom table, so no atom is the
# cut; the prolog dialect's reader reads a ``!`` that stands as a goal as it.
TRUE = Const("true")
CUT = object.__new__(Const)
CUT.name = "!"


class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        # 3 and 3.0 are distinct terms, so compare classes as well.
        return (
            type(other) is Num
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self):
        return hash((type(self.value).__name__, self.value))

    def __reduce__(self):
        return (Num, (self.value,))

    def __repr__(self):
        return "Num(%r)" % (self.value,)


class Compound:
    __slots__ = ("functor", "args")

    def __init__(self, functor, args):
        self.functor = functor
        self.args = tuple(args)

    def __eq__(self, other):
        # Iterative: lists nest one compound per element, so deep spines
        # must not recurse through the host stack.
        if type(other) is not Compound:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            ta = type(a)
            if ta is not type(b):
                return False
            if ta is Compound:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                stack.extend(zip(a.args, b.args))
            elif ta is Var:
                if a.id != b.id:
                    return False
            elif ta is Num:
                if type(a.value) is not type(b.value) or a.value != b.value:
                    return False
            elif a != b:
                return False
        return True

    def __hash__(self):
        # Spine-friendly: fold functors and leaf hashes along the spine
        # instead of hashing nested tuples.
        h = hash("compound")
        stack = [self]
        while stack:
            t = stack.pop()
            if type(t) is Compound:
                h = hash((h, t.functor, len(t.args)))
                stack.extend(t.args)
            else:
                h = hash((h, hash(t)))
        return h

    def __reduce__(self):
        return (Compound, (self.functor, self.args))

    def __repr__(self):
        return "Compound(%r, %r)" % (self.functor, self.args)


def deref(t):
    """Follow the outermost variable chain of ``t``.

    Shallow: arguments of a compound result are not touched.
    """
    while type(t) is Var:
        nxt = t.ref
        if nxt is None:
            return t
        t = nxt
    return t


def resolve(t, copies=None):
    """Replace every bound variable in ``t``, at every depth, by its value.

    With a dict ``copies`` (var id -> copy), an unbound variable is also
    replaced, by a copy of its cell kept there.  A copy has the cell's id
    and name, so it prints and compares as the cell does, but no run
    binds it; a run may still bind the cell, and need not undo that if
    the cell is younger than its choicepoints.  A cyclic binding has no
    finite resolution: MupError (see ``rebuild``).
    """
    if copies is None:
        return rebuild(t)
    return rebuild(t, lambda var: _copy(var, copies))


def _copy(var, copies):
    copy = copies.get(var.id)
    if copy is None:
        copy = copies[var.id] = Var(var.id, var.name)
    return copy


def _remake(node, parts):
    return Compound(node.functor, parts)


def rebuild(root, leaf=None, make=_remake):
    """The term ``root``, rebuilt bottom-up, with bindings followed.

    A bound variable stands for its value, which is rebuilt in turn; an
    unbound one becomes ``leaf(var)``, or stays itself if ``leaf`` is
    None.  A compound whose parts all came back as they were is kept as
    it is (shared); any other becomes ``make(compound, parts)``.  A loop
    over an explicit stack, so arbitrarily long list spines rebuild in
    constant host stack.  A variable met again inside its own value (a
    cyclic binding, which unification without the occurs check allows)
    has no finite rebuild: MupError.
    """
    stack = []  # suspended parents: node, parts, iterator, built, var id
    expanding = set()  # ids of the variables whose values are being rebuilt
    # The bottom frame stands for the caller: its one part is ``root``.
    node, parts, vid = None, (root,), None
    rest = iter(parts)
    built = []
    while True:
        for part in rest:
            pt = type(part)
            if pt is Var:
                value = part  # deref, inline: resolve's cost is per variable
                while pt is Var and value.ref is not None:
                    value = value.ref
                    pt = type(value)
                if pt is Var:
                    built.append(value if leaf is None else leaf(value))
                    continue
                if pt is not Compound:
                    built.append(value)
                    continue
                if part.id in expanding:
                    raise MupError("cannot resolve a cyclic term")
                expanding.add(part.id)
                stack.append((node, parts, rest, built, vid))
                node, parts, vid = value, value.args, part.id
                break
            if pt is Compound:
                stack.append((node, parts, rest, built, vid))
                node, parts, vid = part, part.args, None
                break
            built.append(part)
        else:
            if not stack:
                return built[0]
            out = make(node, built) if any(map(is_not, built, parts)) else node
            expanding.discard(vid)
            node, parts, rest, built, vid = stack.pop()
            built.append(out)
            continue
        rest = iter(parts)
        built = []


class Bindings(list):
    """The binding store: the trail of bound cells, and the boundary ``hb``.

    Never shared across threads.  Checkpoint marks are trail positions:
    undoing to a mark unbinds exactly the variables trailed after it.
    Only a run of the engine trails conditionally; every binding made
    outside one is trailed.
    """

    __slots__ = ("hb",)  # a slot: the engine reads and sets it in its loop

    def __init__(self):
        self.hb = ALL

    def checkpoint(self):
        """Return a mark capturing the current binding state."""
        return len(self)

    def undo_to(self, mark):
        """Restore the state captured by ``mark``.

        A mark that was already undone past (or that never came from this
        store's current history) is rejected.
        """
        if not 0 <= mark <= len(self):
            raise InternalError("stale or foreign checkpoint mark: %r" % (mark,))
        undo_to(self, mark)

    def bind(self, var, term):
        bind(self, var, term)

    deref = staticmethod(deref)
    resolve = staticmethod(resolve)


def bind(trail, var, t):
    """Bind ``var`` to ``t``; trail the binding if ``var`` is below the boundary."""
    var.ref = t
    if var.id < trail.hb:
        trail.append(var)


def undo_to(trail, mark):
    """Unbind every variable bound after trail position ``mark``."""
    while len(trail) > mark:
        trail.pop().ref = None


def occurs(var, t):
    """True iff the unbound ``var`` occurs in ``t``."""
    stack = [t]
    while stack:
        x = deref(stack.pop())
        tx = type(x)
        if tx is Var:
            if x is var:
                return True
        elif tx is Compound:
            stack.extend(x.args)
    return False


def unify(t, s, trail, occurs_check=False):
    """Bind variables so that ``t`` and ``s`` become equal, most generally.

    ``trail`` is a ``Bindings`` store.  Returns True on success, with the
    bindings trailed as ``bind`` does.  On failure every trailed binding
    made is undone and False is returned: failure is an expected outcome,
    not an error.  A cell at or above the boundary stays bound: the
    engine sets such a boundary only where a failure backtracks to a
    choicepoint older than the cell.

    After ``_PAIRS`` compound pairs, a pair met again is skipped: its
    arguments were pushed when it was first met.  So two cyclic terms
    unify in finite time, as rational trees (Colmerauer 1982).
    """
    mark = len(trail)
    pairs = _PAIRS  # compound pairs left to visit before remembering them
    seen = None
    stack = [(t, s)]
    while stack:
        a, b = stack.pop()
        a = deref(a)
        b = deref(b)
        ta = type(a)
        tb = type(b)
        if ta is Var:
            if b is a:
                continue
            if occurs_check and occurs(a, b):
                undo_to(trail, mark)
                return False
            a.ref = b
            if a.id < trail.hb:
                trail.append(a)
            continue
        if tb is Var:
            if occurs_check and occurs(b, a):
                undo_to(trail, mark)
                return False
            b.ref = a
            if b.id < trail.hb:
                trail.append(b)
            continue
        if ta is not tb:
            undo_to(trail, mark)
            return False
        if ta is Const:
            if a is not b:
                undo_to(trail, mark)
                return False
        elif ta is Num:
            if type(a.value) is not type(b.value) or a.value != b.value:
                undo_to(trail, mark)
                return False
        else:  # Compound
            if a.functor != b.functor or len(a.args) != len(b.args):
                undo_to(trail, mark)
                return False
            if pairs:
                pairs -= 1
            else:
                if seen is None:
                    seen = set()
                pair = (id(a), id(b))
                if pair in seen:
                    continue
                seen.add(pair)
            stack.extend(zip(a.args, b.args))
    return True

