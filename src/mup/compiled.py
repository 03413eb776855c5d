"""Compiled clauses: Python code generated per clause for head matching
and body building, plus a first-argument index per predicate.

A clause is compiled the first time it is tried, not when its Program
loads; the index needs only the head's first argument.  Compiling first
makes templates of the head and the body, which is a term too: every
variable of the clause becomes its slot number, a subterm without
variables is kept as it is (shared, never copied), and any other
compound becomes a ``(functor, children)`` pair.  From the templates it
generates the source of two Python functions and ``compile()``s it:

* The head matcher takes the call, whose name and arity the engine's
  lookup has matched, and the trail.  Like the WAM's clause code, it
  reads the call's arguments left to right, in the order of its ``get``
  instructions (Warren 1983; Ait-Kaci 1991).  A slot's first occurrence
  takes the call's subterm as it is; a later one is the WAM's
  ``get_value``, inline: both sides are dereferenced, an unbound side is
  bound (the younger cell to the older if both are unbound, after an
  occurrence check when the occurs check is on), and only two
  non-variables go to ``kernel.unify``.  An atom or a number is checked
  or bound in place, an atom by identity (one object per atom).
  Each compound argument, down to ``_DEPTH`` levels, is one block that
  dereferences the call's subterm once.  If that is a compound, the block
  checks functor and arity and reads the arguments, a compound argument
  being a block one level deeper (read mode).  If it is an unbound
  variable, the block builds the whole compound, checks for occurrence
  when the occurs check is on and binds the variable (write mode).
  Anything else fails.  This is the WAM's pair of modes, with the code
  specialised on the clause's shape as in Aquarius (Van Roy and Despain
  1992).  Reading left to right, ``app([H|T], L, [H|R])`` takes ``H``
  from its first argument before write mode builds ``[H|R]``.  Below
  ``_DEPTH``, a compound is built with fresh variables and unified as a
  repeated slot is.  A binding is trailed as ``kernel.bind`` trails it,
  only if the cell is below the trail's boundary.  The matcher returns
  the values of the slots the body needs, or None.  On failure it leaves
  its bindings as they are: as in the WAM, the caller undoes them through
  the trail.
* The body builder takes those values and builds the body, giving each
  slot that only the body has a fresh variable, left to right.  A body
  that is one variable (a programmatic ``Clause(p(G), G)``) is built as
  that slot's value.

Write mode and the body builder share one term builder, ``_build``.  It
nests calls at most ``_NEST`` deep and builds deeper parts into locals
first, and ``_DEPTH`` bounds the nesting of blocks, so code for a deep
term stays within CPython's limits; the generators loop over explicit
stacks wherever a term's size is unbounded.  Atoms, functor names, slot
names and ground parts are passed in as default arguments rather than
written into the source, so clauses that differ only in those share one
code object: ``CODE`` caches each function's code by its source.  A
head without variables gets no matcher: ``match_head`` matches it with
the call in place, argument by argument.  A clause without variables
gets no code at all, and its body is used as it is.

``Predicate`` keeps a predicate's clauses in source order and indexes
them on the first head argument; an atom keys by itself.  Its dispatch
is fixed at load for its shape, as the WAM's ``switch_on_term`` is, and
a key that no block holds gets one prebuilt default.
"""

import builtins
from itertools import count
from types import CodeType, FunctionType

from mup.kernel import (
    Compound, Const, Num, Var, _var_ids, occurs, rebuild, unify,
)

# The names generated code refers to, besides its parameters.
_SCOPE = {
    "__builtins__": builtins,
    "ids": _var_ids,
    "Compound": Compound,
    "Num": Num,
    "Var": Var,
    "occurs": occurs,
    "unify": unify,
}

# Code cache: the source of a generated function -> its code object.  It
# grows with the number of distinct clause shapes a process compiles.
CODE = {}

_NEST = 8  # the deepest a generated expression nests calls
# The deepest head compound matched by a block of its own.  At 1, the
# second cell of a ``[A, B | T]`` head goes to ``kernel.unify`` and the
# head reads about 40% slower.
_DEPTH = 4

_NO_CODE = (None, None)


def match_head(clause, goal, trail, occurs_check):
    """Match the head of ``clause`` with the dereferenced call ``goal``.

    ``goal`` has the head's name and arity, which are not tested here.
    Returns the values ``build_body`` needs, or None.  A failed match
    leaves its bindings for the caller to undo, to a trail mark taken
    before the call.  Compiles the clause on its first try.  A compound
    head without variables, a fact's, is matched here in place, argument
    by argument, as the WAM's ``get_constant`` does: an unbound call
    argument is bound to the head's (which needs no occurrence check,
    being ground), an atom matches itself and a number an equal one of
    its type, and only a compound argument goes to ``kernel.unify``.
    """
    code = clause.code or compile_clause(clause)
    match = code[0]
    if match is not None:
        return match(goal, trail, occurs_check)
    head = clause.head  # without variables
    if type(head) is not Compound or type(goal) is not Compound:  # p/0: p or p()
        return () if head is goal else None
    for h, t in zip(head.args, goal.args):
        while type(t) is Var:
            u = t.ref
            if u is None:
                t.ref = h
                if t.id < trail.hb:
                    trail.append(t)
                break
            t = u
        else:
            if t is h:
                continue
            th = type(h)
            if th is Num:
                if type(t) is Num and type(t.value) is type(h.value) and t.value == h.value:
                    continue
            elif th is not Const and unify(h, t, trail, occurs_check):  # a compound
                continue
            return None
    return ()


def build_body(clause, values):
    """The body of ``clause`` for the ``values`` its head match returned.

    A body without variables is returned as it is.
    """
    build = clause.code[1]
    return clause.body if build is None else build(*values)


def compile_clause(clause):
    """Set the clause's ``code`` (matcher, builder) and return it."""
    slots = {}  # var id -> slot number
    names = []  # slot number -> variable name

    def leaf(var):
        slot = slots.get(var.id)
        if slot is None:
            slot = slots[var.id] = len(names)
            names.append(var.name)
        return slot

    head_t = rebuild(clause.head, leaf, _template)
    body_t = rebuild(clause.body, leaf, _template)
    code = _generate(head_t, body_t, names) if names else _NO_CODE
    clause.code = code
    return code


def _template(node, parts):
    return (node.functor, tuple(parts))


# ---------------------------------------------------------------------------
# Code generation


def _generate(head_t, body_t, names):
    """The (matcher, builder) pair of a clause; either is None if not needed."""
    match = build = None
    head_slots = set()
    if type(head_t) is tuple:
        head_lines, head_consts, head_slots = _matcher_lines(head_t, names)
    values = []  # the head's slots that the body uses
    if type(body_t) is tuple or type(body_t) is int:  # an int: a variable body
        consts = []
        lines = []
        expr, reused = _build(body_t, names, head_slots, _namer(consts), count(), lines, "    ")
        lines.append("    return " + expr)
        values = sorted(reused)
        build = _function("build", ["v%d" % i for i in values], consts, lines)
    if type(head_t) is tuple:
        head_lines.append("    return " + _tuple(["v%d" % i for i in values]))
        match = _function("match", ["goal", "trail", "occ"], head_consts, head_lines)
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


def _build(template, names, have, k, temps, lines, pad):
    """An expression that builds ``template`` bottom-up, left to right.

    A slot in ``have`` is read from its local ``v<slot>``; any other gets
    a fresh variable, on ``lines``, where the build first meets it, and
    joins ``have``.  A part is built inside its parent's expression unless
    that would nest calls deeper than ``_NEST``; then it is built into a
    local first.  Returns the expression and the slots met that were in
    ``have`` before.
    """
    reused = set()
    fresh = set()
    stack = []  # suspended parents: functor, iterator over children, parts, depth
    # The bottom frame stands for the caller: its one child is ``template``.
    functor, rest, parts, depth = None, iter((template,)), [], 0
    while True:
        for child in rest:
            ct = type(child)
            if ct is int:
                if child not in have:
                    have.add(child)
                    fresh.add(child)
                    lines.append("%sv%d = Var(next(ids), %s)" % (pad, child, k(names[child])))
                elif child not in fresh:
                    reused.add(child)
                parts.append("v%d" % child)
            elif ct is tuple:
                stack.append((functor, rest, parts, depth))
                functor, children = child
                rest = iter(children)
                parts = []
                depth = 0
                break
            else:
                parts.append(k(child))
        else:
            if functor is None:
                return parts[0], reused
            expr = "Compound(%s, %s)" % (k(functor), _tuple(parts))
            depth += 1
            functor, rest, parts, outer = stack.pop()
            if depth == _NEST and functor is not None:
                name = "b%d" % next(temps)
                lines.append("%s%s = %s" % (pad, name, expr))
                expr = name
                depth = 0
            parts.append(expr)
            depth = max(depth, outer)


def _matcher_lines(template, names):
    """Lines of a head matcher for the compound head ``template``.

    Returns the lines, the constants and the set of slots the head fills.
    The arguments are read left to right at every level.  A slot met
    again is unified inline (``_get_value_lines``), binding the younger of
    two unbound cells to the older.  A compound argument down to
    ``_DEPTH`` levels is one block, whose read mode nests the blocks of
    its own compound arguments one level deeper; below that, a compound
    is built and unified as a repeated slot is.  Every failure is
    ``return None``, leaving the bindings made so far to the caller.
    """
    consts = []
    k = _namer(consts)
    have = set()  # the slots filled so far
    temps = count()

    def read(children, source, depth, pad):
        """Read mode: the arguments ``children`` of ``source``, left to right."""
        targets = ["x%d" % next(temps) for _ in children]
        out = []
        for i, node in enumerate(children):
            nt = type(node)
            if nt is int:
                if node not in have:  # first occurrence: take the call's subterm
                    have.add(node)
                    targets[i] = "v%d" % node
                    continue
                value = "v%d" % node
            elif nt is Compound:  # without variables: shared, never copied
                value = k(node)
            elif nt is not tuple:
                out.extend(_constant_lines(node, targets[i], pad, k))
                continue
            elif depth < _DEPTH:
                out.extend(block(node, targets[i], depth + 1, pad))
                continue
            else:
                value = _build(node, names, have, k, temps, out, pad)[0]
            out.extend(_get_value_lines(value, targets[i], pad))
        return ["%s%s = %s.args" % (pad, _tuple(targets)[1:-1], source)] + out

    def block(node, source, depth, pad):
        """Match the head compound ``node`` with ``source`` in read or write mode."""
        functor, children = node
        before = set(have)
        inner = pad + "    "
        out = _deref_lines(pad, source)
        out.append("%sif type(t) is Compound:" % pad)
        out.append("%sif t.functor != %s or len(t.args) != %d:"
                   % (inner, k(functor), len(children)))
        out.append("%s    return None" % inner)
        out.extend(read(children, "t", depth, inner))
        out.append("%selif type(t) is Var:" % pad)
        expr, reused = _build(node, names, before, k, temps, out, inner)
        if reused:  # the compound may hold the variable it is bound to
            out.append("%sb = %s" % (inner, expr))
            out.append("%sif occ and occurs(t, b):" % inner)
            out.append("%s    return None" % inner)
            expr = "b"
        out.append("%st.ref = %s" % (inner, expr))
        out.extend(_trail_lines(inner))
        out.append("%selse:" % pad)
        out.append("%sreturn None" % inner)
        return out

    return read(template[1], "goal", 0, "    "), consts, have


def _deref_lines(pad, source, var="t"):
    return [
        "%s%s = %s" % (pad, var, source),
        "%swhile type(%s) is Var and (u := %s.ref) is not None:" % (pad, var, var),
        "%s    %s = u" % (pad, var),
    ]


def _trail_lines(pad, var="t"):
    """Trail the binding of ``var`` if it is below the trail's boundary."""
    return ["%sif %s.id < trail.hb:" % (pad, var), "%s    trail.append(%s)" % (pad, var)]


def _get_value_lines(value, source, pad):
    """Unify the head's ``value`` with the call's ``source``, inline.

    The WAM's ``get_value``: both sides are dereferenced, and an unbound
    side is bound in place, the younger cell to the older if both are
    unbound.  Only two non-variables go to ``kernel.unify``.
    """
    inner = pad + "    "
    out = _deref_lines(pad, value, "s") + _deref_lines(pad, source)
    out.append("%sif s is t:" % pad)
    out.append("%spass" % inner)
    for var, other, test in (
        ("s", "t", "type(s) is Var and (type(t) is not Var or s.id > t.id)"),
        ("t", "s", "type(t) is Var"),
    ):
        out.append("%selif %s:" % (pad, test))
        out.append("%sif occ and occurs(%s, %s):" % (inner, var, other))
        out.append("%s    return None" % inner)
        out.append("%s%s.ref = %s" % (inner, var, other))
        out.extend(_trail_lines(inner, var))
    out.append("%selif not unify(s, t, trail, occ):" % pad)
    out.append("%sreturn None" % inner)
    return out


def _constant_lines(node, source, pad, k):
    """Read mode for an atom or a number of the head."""
    const = k(node)
    out = _deref_lines(pad, source)
    out.append("%sif type(t) is Var:" % pad)
    out.append("%s    t.ref = %s" % (pad, const))
    out.extend(_trail_lines(pad + "    "))
    if type(node) is Const:  # one object per atom
        test = "t is not %s" % const
    else:
        value = node.value
        test = "type(t) is not Num or t.value != %s or type(t.value) is not %s" % (
            k(value), type(value).__name__)
    out.append("%selif %s:" % (pad, test))
    out.append("%s    return None" % pad)
    return out


# ---------------------------------------------------------------------------
# First-argument index


def index_key(term):
    """The first-argument index key of a dereferenced term (None for a var).

    An atom keys by itself (one object per atom) and an integer by its
    value; a float keys by a 1-tuple, so that ``1`` and ``1.0`` stay
    apart; a compound keys by its functor and arity.
    """
    tt = type(term)
    if tt is Const:
        return term
    if tt is Num:
        value = term.value
        return value if type(value) is int else (value,)
    if tt is Compound:
        return (term.functor, len(term.args))
    return None


class Predicate:
    """A predicate's clauses in source order, and its dispatch.

    As in the WAM, the clauses fall into blocks, in source order: a clause
    whose first argument is a variable is a block of its own, and each run
    of other clauses is one dict from key to the run's clauses with that
    key (one clause is held bare, which saves a list per key of a large
    table).  Index memory and load time stay linear in the clause count.
    Clauses are compiled on their first try, not here, and the list they
    come in is kept, not copied.

    A loaded program does not change, so the dispatch is fixed here for
    the predicate's shape, as ``switch_on_term`` is.  ``held`` is None
    without keyed heads, the one run's dict, or, with mixed blocks, the
    keys that some run holds, each mapped to None: merge the blocks.
    ``miss`` is what any other key gets: () or the variable-first clauses.
    """

    __slots__ = ("clauses", "blocks", "every", "held", "miss")

    def __init__(self, clauses):
        self.clauses = clauses
        self.blocks = blocks = []
        for clause in clauses:
            head = clause.head
            key = None
            if type(head) is Compound and head.args:
                key = index_key(head.args[0])
            if key is None:
                blocks.append(clause)
                continue
            run = blocks[-1] if blocks else None
            if type(run) is not dict:
                run = {}
                blocks.append(run)
            bucket = run.get(key)
            if bucket is None:
                run[key] = clause
            elif type(bucket) is list:
                bucket.append(clause)
            else:
                run[key] = [bucket, clause]
        self.every = clauses[0] if len(clauses) == 1 else clauses
        self.held = self.miss = None  # no keyed heads
        runs = [block for block in blocks if type(block) is dict]
        if len(blocks) == 1 and runs:
            self.held, self.miss = runs[0], ()
        elif runs:
            free = tuple(block for block in blocks if type(block) is not dict)
            self.held = dict.fromkeys(key for run in runs for key in run)
            self.miss = free[0] if len(free) == 1 else free

    def candidates(self, goal):
        """The clauses that may match the dereferenced call ``goal``, in source
        order, a lone one bare.  The first argument is keyed inline."""
        held = self.held
        if held is None:
            return self.every
        t = goal.args[0]  # a head has a first argument, so the call does
        while type(t) is Var:
            t = t.ref
            if t is None:
                return self.every
        tt = type(t)
        if tt is Compound:
            key = (t.functor, len(t.args))
        elif tt is Const:
            key = t
        elif tt is Num:
            key = t.value
            if type(key) is not int:
                key = (key,)
        else:  # not a term: no key, as ``index_key`` has none for it
            return self.every
        found = held.get(key, self.miss)
        if found is not None:
            return found
        found = []
        for block in self.blocks:
            if type(block) is not dict:
                found.append(block)
                continue
            bucket = block.get(key)
            if type(bucket) is list:
                found.extend(bucket)
            elif bucket is not None:
                found.append(bucket)
        return found[0] if len(found) == 1 else found
