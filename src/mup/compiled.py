"""Compiled clauses: Python code generated per clause for head matching
and body building, plus a first-argument index per predicate.

A clause is compiled the first time it is tried, not when its Program
loads; the index needs only the head's first argument.  Compiling first
makes the clause's ``head_template``, ``body_template`` and ``nslots``:
every variable of the clause becomes its slot number, a subterm or
subgoal without variables is kept as it is (shared, never copied), and
any other compound or goal becomes a ``(maker, children)`` pair, where
``maker`` is a functor name or a goal class.  From the templates it
generates the source of two Python functions and ``compile()``s it:

* The head matcher takes the call and the binding store.  It visits the
  head in the order the kernel's ``unify`` visits a renamed head
  (preorder, last argument first), so it binds the same variables the
  same way.  A slot's first occurrence takes the call's subterm as it
  is; a later one calls ``kernel.unify``.  A compound dereferences the
  call's subterm once: if that is a compound it checks functor and arity
  and reads the arguments (read mode); if it is an unbound variable, the
  compound is built from its arguments, checked for occurrence when the
  occurs check is on, and bound (write mode).  This is the WAM's pair of
  modes (Warren 1983), with the code specialised on the clause's shape
  as in Aquarius (Van Roy and Despain 1992).  The matcher returns the
  values of the slots the body needs, or None with the store restored.
* The body builder takes those values and builds the body, giving each
  slot that only the body has a fresh variable, left to right.

The generated code is flat: one straight run of steps whose nesting does
not grow with the depth of a term, since CPython caps nested blocks, and
the generator is a loop over explicit stacks.  Atoms, functor names,
slot names and ground parts are passed in as default arguments rather
than written into the source, so clauses that differ only in those share
one code object: ``CODE`` caches each function's code by its source.  A ground
clause (``nslots == 0``) gets no code; its head is unified with the call
by ``kernel.unify`` and its body is used as it is.

``Predicate`` keeps a predicate's clauses in source order and indexes
them on the first head argument, as the WAM's ``switch_on_term`` does.
"""

import builtins
from itertools import count
from types import CodeType, FunctionType

from mup.kernel import Compound, Const, Num, Var, deref, occurs, undo_to, unify
from mup.syntax import (
    TRUE,
    Call,
    Choice,
    ClassicalOr,
    Conj,
    Eq,
    Exists,
    SoftIfThenElse,
    rebuild,
)
from mup.terms import _var_ids

# The names generated code refers to, besides its parameters.
_SCOPE = {
    "__builtins__": builtins,
    "ids": _var_ids,
    "Compound": Compound,
    "Const": Const,
    "Num": Num,
    "Var": Var,
    "occurs": occurs,
    "undo_to": undo_to,
    "unify": unify,
}
_SCOPE.update(
    (cls.__name__, cls)
    for cls in (Call, Choice, ClassicalOr, Conj, Eq, Exists, SoftIfThenElse)
)

# Code cache: the source of a generated function -> its code object.  It
# grows with the number of distinct clause shapes a process compiles.
CODE = {}

_NEST = 8  # the deepest a generated expression nests calls

_NO_CODE = (None, None)


def match_head(clause, goal, bmap, trail, occurs_check):
    """Match the head of ``clause`` with the dereferenced call ``goal``.

    Returns the values ``build_body`` needs, or None with the store
    restored, like the kernel's ``unify``.  Compiles the clause on its
    first try.
    """
    code = clause.code
    if code is None:
        code = compile_clause(clause)
    match = code[0]
    if match is None:  # a head without variables
        return () if unify(clause.head, goal, bmap, trail, occurs_check) else None
    return match(goal, bmap, trail, occurs_check)


def build_body(clause, values):
    """The body of ``clause`` for the ``values`` its head match returned.

    A body without variables is returned as it is.
    """
    build = clause.code[1]
    return clause.body if build is None else build(*values)


def compile_clause(clause):
    """Set the clause's templates and ``code`` (matcher, builder); return the code."""
    head = clause.head
    body = clause.body
    if body is TRUE:
        # Fast path for facts with atomic arguments, the bulk of a table.
        for arg in head.args if type(head) is Compound else ():
            if type(arg) is not Const and type(arg) is not Num:
                break
        else:
            clause.head_template = head
            clause.body_template = body
            clause.nslots = 0
            clause.code = _NO_CODE
            return _NO_CODE
    # ``rebuild`` takes an Exists binder's entry out of ``slots`` for the
    # extent of its body, so the binder gets a slot of its own.
    slots = {}  # var id -> slot number
    names = []  # slot number -> variable name

    def leaf(var):
        slot = slots.get(var.id)
        if slot is None:
            slot = slots[var.id] = len(names)
            names.append(var.name)
        return slot

    clause.head_template = head_t = rebuild(head, slots, leaf, _template)
    clause.body_template = body_t = rebuild(body, slots, leaf, _template)
    clause.nslots = len(names)
    code = _generate(head_t, body_t, names) if names else _NO_CODE
    clause.code = code
    return code


def _template(node, parts):
    maker = node.functor if type(node) is Compound else type(node)
    return (maker, tuple(parts))


# ---------------------------------------------------------------------------
# Code generation


def _generate(head_t, body_t, names):
    """The (matcher, builder) pair of a clause; either is None if not needed."""
    match = build = None
    head_slots = ()
    if type(head_t) is tuple:
        head_lines, head_consts, head_slots = _matcher_lines(head_t, names)
    values = []  # the head's slots that the body uses
    if type(body_t) is tuple:
        lines, consts, values = _builder_lines(body_t, names, head_slots)
        build = _function("build", ["v%d" % i for i in values], consts, lines)
    if type(head_t) is tuple:
        head_lines.append("    return " + _tuple(["v%d" % i for i in values]))
        match = _function("match", ["goal", "bmap", "trail", "occ"], head_consts,
                          head_lines)
    return (match, build)


def _function(name, params, consts, lines):
    """The generated function, its constants passed as default arguments."""
    params = params + ["k%d" % i for i in range(len(consts))]
    source = "def %s(%s):\n%s\n" % (name, ", ".join(params), "\n".join(lines))
    code = CODE.get(source)
    if code is None:
        module = compile(source, "<mup clause>", "exec")
        code = CODE[source] = next(c for c in module.co_consts if type(c) is CodeType)
    return FunctionType(code, _SCOPE, name, tuple(consts))


def _tuple(names):
    return "(%s,)" % names[0] if len(names) == 1 else "(%s)" % ", ".join(names)


def _namer(consts):
    """Name each constant by its place in ``consts``: ``k0``, ``k1``, ...

    Equal constants are not merged, so the source depends only on the
    clause's shape.
    """
    def k(value):
        consts.append(value)
        return "k%d" % (len(consts) - 1)

    return k


def _builder_lines(template, names, head_slots):
    """Lines building ``template`` bottom-up, left to right.

    Returns the lines, the constants and the parameters: the slots of
    ``head_slots`` met, in order.  Any other slot gets a fresh variable
    where the build first meets it.  A part is built inside its parent's
    expression unless that would nest calls deeper than ``_NEST``; then
    it is built into a local first.
    """
    consts = []
    k = _namer(consts)
    lines = []
    met = set()
    params = []
    temps = count()
    stack = []  # suspended parents: maker, iterator over children, parts, depth
    maker, children = template
    rest = iter(children)
    parts = []
    depth = 0  # the deepest nesting among ``parts``
    while True:
        for child in rest:
            ct = type(child)
            if ct is int:
                if child not in met:
                    met.add(child)
                    if child in head_slots:
                        params.append(child)
                    else:
                        lines.append("    v%d = Var(next(ids), %s)" % (child, k(names[child])))
                parts.append("v%d" % child)
            elif ct is tuple:
                stack.append((maker, rest, parts, depth))
                maker, children = child
                rest = iter(children)
                parts = []
                depth = 0
                break
            else:
                parts.append(k(child))
        else:
            if type(maker) is str:
                expr = "Compound(%s, %s)" % (k(maker), _tuple(parts))
            else:
                expr = "%s(%s)" % (maker.__name__, ", ".join(parts))
            depth += 1
            if not stack:
                lines.append("    return " + expr)
                return lines, consts, sorted(params)
            if depth == _NEST:
                name = "b%d" % next(temps)
                lines.append("    %s = %s" % (name, expr))
                expr = name
                depth = 0
            maker, rest, parts, outer = stack.pop()
            parts.append(expr)
            depth = max(depth, outer)


class _Compound:
    """A compound of the head while its matcher is written.

    ``reads`` are the locals its arguments go to in read mode (a slot's
    first occurrence goes straight to the slot's local); ``news`` are the
    slots of its arguments that write mode makes fresh; ``parts`` are
    what write mode builds it from.  ``first`` is the read position of
    the earliest slot occurrence below it that had been filled before it
    was reached: if that precedes ``pos``, write mode needs an occurs
    check.
    """

    __slots__ = ("n", "functor", "pos", "parent", "reads", "news", "parts", "first")

    def __init__(self, n, functor, pos, parent, reads):
        self.n = n
        self.functor = functor
        self.pos = pos
        self.parent = parent
        self.reads = reads
        self.news = []
        self.parts = list(reads)
        self.first = pos


_CLOSE = object()  # stack marker: every argument of a compound is done


def _matcher_lines(template, names):
    """Lines of a head matcher for the compound head ``template``.

    Returns the lines, the constants and the set of slots the head fills.
    The steps come in the kernel's order; each step of a compound's
    argument is guarded by that compound's read-mode flag ``r<n>``, and
    a compound built in write mode is bound, after its arguments, by the
    step that closes it.  No step nests inside another.
    """
    consts = []
    k = _namer(consts)
    lines = []  # strings, and (indent, compound, what) written at the end
    first_at = {}  # slot -> read position of its first occurrence
    bound = False  # whether a step before this one may have bound anything
    undo = False  # whether some failure must undo bindings

    def fail(indent):
        nonlocal undo
        undo = undo or bound
        return " " * indent + ("return undo_to(bmap, trail, mark)" if bound else "return None")

    functor, children = template
    temps = count()
    root = _Compound(None, k(functor), 0, None, ["x%d" % next(temps) for _ in children])
    lines.append(
        "    if type(goal) is not Compound or goal.functor != %s or len(goal.args) != %d:"
        % (root.functor, len(children)))
    lines.append("        return None")
    lines.append((4, root, "reads"))
    stack = [(child, i, root) for i, child in enumerate(children)]
    pos = 0
    while stack:
        node, i, parent = stack.pop()
        if node is _CLOSE:
            lines.extend(_close_lines(parent, fail))
            bound = True
            if parent.parent is not root:
                parent.parent.first = min(parent.parent.first, parent.first)
            continue
        pos += 1
        nested = parent is not root
        guard = "r%d" % parent.n if nested else None
        here = parent.reads[i]
        nt = type(node)
        if nt is int:
            name = "v%d" % node
            parent.parts[i] = name
            if node not in first_at:
                first_at[node] = pos
                parent.reads[i] = name
                if nested:
                    parent.news.append(node)
                continue
            parent.first = min(parent.first, first_at[node])
            test = "not unify(%s, %s, bmap, trail, occ)" % (name, here)
            lines.append("    if %s%s:" % ("%s and " % guard if nested else "", test))
            lines.append(fail(8))
            bound = True
            continue
        if nt is not tuple:
            parent.parts[i] = k(node)
            lines.extend(_constant_lines(node, parent.parts[i], here, guard, k, fail))
            bound = True
            continue
        functor, children = node
        reads = ["x%d" % next(temps) for _ in children]
        comp = _Compound(next(temps), k(functor), pos, parent, reads)
        parent.parts[i] = "b%d" % comp.n
        lines.extend(_open_lines(comp, here, guard, fail))
        stack.append((_CLOSE, None, comp))
        stack.extend((child, j, comp) for j, child in enumerate(children))
    if undo:
        lines.insert(0, "    mark = len(trail)")
    written = []
    for line in lines:
        if type(line) is str:
            written.append(line)
            continue
        # A compound's reads and news are known only once its arguments are.
        indent, comp, what = line
        pad = " " * indent
        if what == "reads":
            target = ", ".join(comp.reads) + ("," if len(comp.reads) == 1 else "")
            source = "goal" if comp is root else "t"
            written.append("%s%s = %s.args" % (pad, target, source))
        else:
            written.extend("%sv%d = Var(next(ids), %s)" % (pad, slot, k(names[slot]))
                           for slot in comp.news)
    return written, consts, set(first_at)


def _deref_lines(indent, source):
    pad = " " * indent
    return [
        "%st = %s" % (pad, source),
        "%swhile type(t) is Var and (u := bmap.get(t.id)) is not None:" % pad,
        "%s    t = u" % pad,
    ]


def _constant_lines(node, const, source, guard, k, fail):
    """Read mode for an atom, a number or a ground compound ``const`` of the head."""
    ind = 4 if guard is None else 8
    out = [] if guard is None else ["    if %s:" % guard]
    if type(node) is Compound:
        out.append("%sif not unify(%s, %s, bmap, trail, occ):" % (" " * ind, const, source))
        out.append(fail(ind + 4))
        return out
    out.extend(_deref_lines(ind, source))
    pad = " " * ind
    out.append("%sif type(t) is Var:" % pad)
    out.append("%s    bmap[t.id] = %s" % (pad, const))
    out.append("%s    trail.append(t.id)" % pad)
    if type(node) is Const:
        test = "type(t) is not Const or t.name != %s" % k(node.name)
    else:
        value = node.value
        test = "type(t) is not Num or t.value != %s or type(t.value) is not %s" % (
            k(value), type(value).__name__)
    out.append("%selif %s:" % (pad, test))
    out.append(fail(ind + 4))
    return out


def _open_lines(comp, source, guard, fail):
    """Enter a compound of the head: read mode, write mode or failure."""
    n = comp.n
    ind = 4 if guard is None else 8
    pad = " " * ind
    out = [] if guard is None else ["    if %s:" % guard]
    out.extend(_deref_lines(ind, source))
    out.append("%sif type(t) is Compound:" % pad)
    out.append("%s    if t.functor != %s or len(t.args) != %d:"
               % (pad, comp.functor, len(comp.reads)))
    out.append(fail(ind + 8))
    out.append((ind + 4, comp, "reads"))
    out.append("%s    r%d = True" % (pad, n))
    out.append("%selif type(t) is Var:" % pad)
    out.append("%s    w%d = t" % (pad, n))
    out.append("%s    r%d = False" % (pad, n))
    out.append((ind + 4, comp, "news"))
    out.append("%selse:" % pad)
    out.append(fail(ind + 4))
    if guard is not None:
        # The enclosing compound is in write mode, so this one is too.
        out.append("    else:")
        out.append("        w%d = None" % n)
        out.append("        r%d = False" % n)
        out.append((8, comp, "news"))
    return out


def _close_lines(comp, fail):
    """Build a compound in write mode, and bind it if write mode began there."""
    n = comp.n
    out = ["    if not r%d:" % n]
    out.append("        b%d = Compound(%s, %s)" % (n, comp.functor, _tuple(comp.parts)))
    ind = 8
    if comp.parent.n is not None:  # nested: write mode may come from outside
        out.append("        if w%d is not None:" % n)
        ind = 12
    pad = " " * ind
    if comp.first < comp.pos:
        out.append("%sif occ and occurs(w%d.id, b%d, bmap):" % (pad, n, n))
        out.append(fail(ind + 4))
    out.append("%sbmap[w%d.id] = b%d" % (pad, n, n))
    out.append("%strail.append(w%d.id)" % (pad, n))
    return out


# ---------------------------------------------------------------------------
# First-argument index


def index_key(term):
    """The first-argument index key of a dereferenced term (None for a var).

    An atom keys by its name and an integer by its value; a float keys by
    a 1-tuple, so that ``1`` and ``1.0`` stay apart; a compound keys by
    its functor and arity.
    """
    tt = type(term)
    if tt is Const:
        return term.name
    if tt is Num:
        value = term.value
        return value if type(value) is int else (value,)
    if tt is Compound:
        return (term.functor, len(term.args))
    return None


class Predicate:
    """A predicate's clauses in source order, indexed on the first argument.

    As in the WAM, the clauses fall into blocks, in source order: a clause
    whose first argument is a variable is a block of its own, and each run
    of other clauses is one dict from key to the run's clauses with that
    key (one clause is held bare, which saves a list per key of a large
    table).  Index memory and load time stay linear in the clause count.
    Clauses are compiled on their first try, not here.
    """

    __slots__ = ("clauses", "blocks", "keyed")

    def __init__(self):
        self.clauses = []
        self.blocks = []
        self.keyed = False

    def add(self, clause):
        self.clauses.append(clause)
        head = clause.head
        key = None
        if type(head) is Compound and head.args:
            key = index_key(head.args[0])
        if key is None:
            self.blocks.append(clause)
            return
        self.keyed = True
        run = self.blocks[-1] if self.blocks else None
        if type(run) is not dict:
            run = {}
            self.blocks.append(run)
        bucket = run.get(key)
        if bucket is None:
            run[key] = clause
        elif type(bucket) is list:
            bucket.append(clause)
        else:
            run[key] = [bucket, clause]

    def candidates(self, goal, bmap):
        """The clauses that may match the dereferenced call ``goal``."""
        if not self.keyed or type(goal) is not Compound:
            return self.clauses
        key = index_key(deref(goal.args[0], bmap))
        if key is None:
            return self.clauses
        blocks = self.blocks
        if len(blocks) == 1:  # one run of keyed clauses
            bucket = blocks[0].get(key)
            if bucket is None:
                return ()
            return bucket if type(bucket) is list else (bucket,)
        found = []
        for block in blocks:
            if type(block) is not dict:
                found.append(block)
                continue
            bucket = block.get(key)
            if type(bucket) is list:
                found.extend(bucket)
            elif bucket is not None:
                found.append(bucket)
        return found
