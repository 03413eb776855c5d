"""Source-to-source translation to standard, cut-based Prolog.

A clause body is a term, read by functor.  Every committed-choice goal
``G0 # G1`` (a ``'#'/2`` compound among the body's connectives, or in a
side of a ``*->``) becomes a call to a fresh auxiliary predicate carrying
the goal's free variables:

* hard_cut mode emits the classic two-clause encoding of ``(G0, !) ; G1``::

      '$choice_N'(Vars) :- G0, !.
      '$choice_N'(Vars) :- G1.

* soft_cut mode emits ``'$choice_N'(Vars) :- (G0 *-> true ; G1).``

Wrapping in an auxiliary predicate keeps the cut local to the choice:
an inline ``!`` would also prune the enclosing clause's alternatives,
which is stronger than dropping one disjunct.  The emitted text reparses
under this package's own ``prolog`` dialect, which is how the
translation is checked against the engine.
"""

import re

from mup.errors import TranslateError
from mup.syntax import (
    CONNECTIVES,
    CUT,
    TRUE,
    Clause,
    free_goal_vars,
    indicator,
    pretty_clause,
    subst_goal,
)
from mup.terms import Compound, Const, Var

MODES = ("hard_cut", "soft_cut")

_AUX_PREFIX = "$choice_"
_WALKED = CONNECTIVES | {"*->"}  # the nodes _tx_goal descends into


def translate(program, mode="hard_cut", source_name=None):
    """Emit standard Prolog text equivalent to ``program``.

    Programs without ``#`` come out textually identical modulo
    whitespace.  Raises TranslateError if user code already uses the
    ``$choice_`` namespace.
    """
    if mode not in MODES:
        raise TranslateError("unknown translation mode %r" % (mode,))

    lines = []
    if source_name:
        lines.append("%% %s, translated (mode: %s)" % (source_name, mode))
    else:
        lines.append("%% translated (mode: %s)" % (mode,))
    counter = [0]
    for clause in program.clauses:
        _check_name("predicate name", clause.head)
        clause, order = _uniquify_names(clause)
        aux_acc = []
        body = _tx_goal(clause.body, order, counter, aux_acc, mode)
        lines.append(pretty_clause(Clause(clause.head, body)))
        for aux in aux_acc:
            lines.append(pretty_clause(aux))
    return "\n".join(lines) + "\n"


_VAR_NAME = re.compile(r"^[A-Z_][A-Za-z0-9_]*$")


def _uniquify_names(clause):
    """The clause with every distinct variable given a distinct printable
    name, and its variables in first-occurrence order.

    Parsed clauses already satisfy this (the parser scopes names), but
    programmatic ASTs may carry duplicate or unprintable display names,
    which would silently merge or break variables when the emitted text
    is read back.  A renamed variable keeps its id.
    """
    order = free_goal_vars(Compound(",", (clause.head, clause.body)))
    taken = {v.name for v in order}
    seen_names = set()
    mapping = {}
    for v in order:
        bad = v.name == "_" or not _VAR_NAME.match(v.name)
        if not bad and v.name not in seen_names:
            seen_names.add(v.name)
            continue
        base = v.name if _VAR_NAME.match(v.name) and v.name != "_" else "_V"
        n = 2
        candidate = "%s_%d" % (base, n)
        while candidate in taken or candidate in seen_names:
            n += 1
            candidate = "%s_%d" % (base, n)
        seen_names.add(candidate)
        taken.add(candidate)
        mapping[v.id] = Var(v.id, candidate)
    if mapping:
        clause = Clause(subst_goal(clause.head, mapping), subst_goal(clause.body, mapping))
    return clause, order


def _tx_goal(goal, order, counter, aux_acc, mode):
    """``goal`` with every ``#`` replaced by a call to an auxiliary predicate.

    The walk descends into every connective and into a ``*->`` compound;
    any other atom or compound is a call, checked against the auxiliary
    namespace.  Inner choices are translated (numbered and emitted) before
    the choices around them.  ``todo`` holds goals still to translate and
    nodes whose two sides are done; ``done`` holds translated goals.  A
    choice's variables are those of its translated sides, in which an
    inner choice is its auxiliary call, so each choice costs the size of
    its sides.
    """
    rank = {v.id: i for i, v in enumerate(order)}
    todo = [(goal, False)]
    done = []
    while todo:
        goal, sides_done = todo.pop()
        if sides_done:
            right = done.pop()
            left = done.pop()
            if goal.functor != "#":
                done.append(Compound(goal.functor, (left, right)))
                continue
            counter[0] += 1
            name = "%s%d" % (_AUX_PREFIX, counter[0])
            in_choice = free_goal_vars(Compound(",", (left, right)))
            params = tuple(sorted(in_choice, key=lambda v: rank[v.id]))
            head = Compound(name, params) if params else Const(name)
            if mode == "hard_cut":
                aux_acc.append(Clause(head, Compound(",", (left, CUT))))
                aux_acc.append(Clause(head, right))
            else:
                soft = Compound(";", (Compound("*->", (left, TRUE)), right))
                aux_acc.append(Clause(head, soft))
            done.append(head)
        elif type(goal) is Compound and goal.functor in _WALKED and len(goal.args) == 2:
            todo.append((goal, True))
            todo.append((goal.args[1], False))
            todo.append((goal.args[0], False))
        else:
            if type(goal) is Compound or type(goal) is Const:
                _check_name("call to", goal)
            done.append(goal)
    return done[0]


def _check_name(what, term):
    name = indicator(term)[0]
    if name.startswith(_AUX_PREFIX):
        raise TranslateError(
            "%s %r collides with the translator's auxiliary namespace" % (what, name)
        )
