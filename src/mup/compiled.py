"""Compiled clauses: templates with numbered variable slots, plus a
first-argument index per predicate.

A clause is compiled once, when its ``Program`` loads, into the
clause's own ``head_template``, ``body_template`` and ``nslots``.  In a
template every variable of the clause becomes a ``Slot``; a subterm or
subgoal without variables is kept as it is (shared, never copied); any
other compound or goal becomes a ``(maker, children)`` pair, where
``maker`` is a functor name or a goal class.

Calling a clause fills a fresh slot list.  ``unify_head`` matches the
head template against the call: a slot seen for the first time takes the
call's subterm as it is, with no new variable and no trail entry.  Only
after the head matched does ``build`` make the body, giving each slot
still empty a fresh variable.  This is the WAM's split between head
unification and body construction (Warren 1983), done over terms
instead of instructions.

``Predicate`` keeps a predicate's clauses in source order and indexes
them on the first head argument, as the WAM's ``switch_on_term`` does.
Everything here is iterative, and is written on top of the kernel's
``deref``, ``bind`` and ``unify``.
"""

from mup.kernel import Compound, Const, Num, Var, bind, deref, occurs, undo_to, unify
from mup.syntax import TRUE, rebuild
from mup.terms import fresh_var


class Slot:
    """A clause variable in a template: its slot number and display name."""

    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name

    def __repr__(self):
        return "Slot(%d, %r)" % (self.index, self.name)


def compile_clause(clause):
    """Set the clause's ``head_template``, ``body_template`` and ``nslots``."""
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
            return
    slots = {}
    made = []
    clause.head_template = _compile(head, slots, made)
    clause.body_template = _compile(body, slots, made)
    clause.nslots = len(made)


def _compile(root, slots, made):
    """The template of a term or goal.

    ``slots`` maps a var id to its Slot; ``made`` lists every Slot made so
    far.  An ``Exists`` binder gets a slot of its own for the extent of
    its body, so it never shares a slot with a variable outside it.
    Parts without variables are kept as they are.
    """
    return rebuild(root, slots, lambda var: _slot(var, slots, made), _template)


def _template(node, parts):
    maker = node.functor if type(node) is Compound else type(node)
    return (maker, tuple(parts))


def _slot(var, slots, made):
    slot = slots.get(var.id)
    if slot is None:
        slot = slots[var.id] = Slot(len(made), var.name)
        made.append(slot)
    return slot


def build(template, slots):
    """Instantiate a term or goal template from ``slots``.

    A slot still empty gets a fresh variable, stored back so that later
    occurrences share it.  Parts without variables are returned as they
    are.
    """
    if type(template) is not tuple:
        return _fill(template, slots) if type(template) is Slot else template
    stack = []  # suspended parents: maker, iterator over children, built
    maker, children = template
    rest = iter(children)
    built = []
    while True:
        for child in rest:
            ct = type(child)
            if ct is Slot:
                value = slots[child.index]
                built.append(_fill(child, slots) if value is None else value)
            elif ct is tuple:
                stack.append((maker, rest, built))
                maker, children = child
                rest = iter(children)
                built = []
                break
            else:
                built.append(child)
        else:
            out = Compound(maker, built) if type(maker) is str else maker(*built)
            if not stack:
                return out
            maker, rest, built = stack.pop()
            built.append(out)


def _fill(slot, slots):
    value = slots[slot.index]
    if value is None:
        value = slots[slot.index] = fresh_var(slot.name)
    return value


def unify_head(template, term, slots, bmap, trail, occurs_check):
    """Unify a head template with the call ``term``, filling ``slots``.

    Same contract as the kernel's ``unify``: True with the new bindings
    trailed, or False with the store restored.  Pairs are taken in the
    order the kernel's ``unify`` takes them for a renamed head, so the
    bindings made (and the answers shown) are the same.
    """
    mark = len(trail)
    stack = [(template, term)]
    while stack:
        t, s = stack.pop()
        tt = type(t)
        if tt is Slot:
            value = slots[t.index]
            if value is None:
                slots[t.index] = s
                continue
            if unify(value, s, bmap, trail, occurs_check):
                continue
        elif tt is tuple:
            s = deref(s, bmap)
            st = type(s)
            if st is Compound:
                args = s.args
                targs = t[1]
                if s.functor == t[0] and len(args) == len(targs):
                    stack.extend(zip(targs, args))
                    continue
            elif st is Var:
                value = build(t, slots)
                if not (occurs_check and occurs(s.id, value, bmap)):
                    bind(bmap, trail, s, value)
                    continue
        elif unify(t, s, bmap, trail, occurs_check):
            continue
        # Every case that did not continue above is a mismatch.
        undo_to(bmap, trail, mark)
        return False
    return True


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
    Clauses are compiled as they are added.
    """

    __slots__ = ("clauses", "blocks", "keyed")

    def __init__(self):
        self.clauses = []
        self.blocks = []
        self.keyed = False

    def add(self, clause):
        compile_clause(clause)
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
