"""Term kernel.

Terms, shallow/deep dereferencing, the binding trail and first-order
unification.  ``terms``, ``compiled``, ``builtins``, ``engine`` and
``unify`` build on these names; ``kernel.unify``, ``kernel.undo_to`` and
``kernel.resolve`` are looked up as module attributes at call time, so
``mupbench`` can time them as layers.

Representation notes:

* A variable is a ``Var`` cell.  Its ``ref`` is None while it is
  unbound and its value once bound, as in the WAM (Warren 1983).  Its
  integer id orders and names it: terms compare equal by ids, and
  display names exist only for printing.
* The trail is a list of the bound cells in binding order.  Undoing to a
  trail mark clears every cell bound after the mark.
* Lists are ordinary compounds: ``'.'(Head, Tail)`` ending in ``'[]'``.
"""

from mup.errors import MupError


class Var:
    __slots__ = ("id", "name", "ref")

    def __init__(self, id, name):
        self.id = id
        self.name = name
        self.ref = None

    def __eq__(self, other):
        return type(other) is Var and other.id == self.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return "Var(%d, %r)" % (self.id, self.name)


class Const:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return type(other) is Const and other.name == self.name

    def __hash__(self):
        return hash(("const", self.name))

    def __repr__(self):
        return "Const(%r)" % (self.name,)


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
            elif ta is Const:
                if a.name != b.name:
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


def resolve(t):
    """Replace every bound variable in ``t``, at every depth, by its value.

    Iterative postorder rebuild, so arbitrarily long list spines resolve
    in constant host stack.  A variable met again inside its own value (a
    cyclic binding, which unification without the occurs check allows)
    has no finite resolution: MupError.
    """
    t = deref(t)
    if type(t) is not Compound:
        return t
    expanding = set()  # ids of the variables whose values are being rebuilt
    stack = [[t, 0, [], None]]  # frames: node, next arg index, rebuilt args, var id
    while True:
        frame = stack[-1]
        node = frame[0]
        idx = frame[1]
        if idx == len(node.args):
            built = Compound(node.functor, tuple(frame[2]))
            stack.pop()
            if not stack:
                return built
            expanding.discard(frame[3])
            stack[-1][2].append(built)
            continue
        frame[1] = idx + 1
        child = node.args[idx]
        if type(child) is Var:
            vid = child.id
            child = deref(child)
            if type(child) is Compound:
                if vid in expanding:
                    raise MupError("cannot resolve a cyclic term")
                expanding.add(vid)
                stack.append([child, 0, [], vid])
                continue
        elif type(child) is Compound:
            stack.append([child, 0, [], None])
            continue
        frame[2].append(child)


def bind(trail, var, t):
    """Bind ``var`` to ``t`` and record the binding on the trail."""
    var.ref = t
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


def unify(t, s, trail, occurs_check):
    """Bind variables so that ``t`` and ``s`` become equal, most generally.

    Returns True on success with the new bindings trailed; on failure every
    binding made is undone and False is returned.
    """
    mark = len(trail)
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
            bind(trail, a, b)
            continue
        if tb is Var:
            if occurs_check and occurs(b, a):
                undo_to(trail, mark)
                return False
            bind(trail, b, a)
            continue
        if ta is not tb:
            undo_to(trail, mark)
            return False
        if ta is Const:
            if a.name != b.name:
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
            stack.extend(zip(a.args, b.args))
    return True

