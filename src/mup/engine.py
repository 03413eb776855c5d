"""The solver: goal reduction plus backchaining over program clauses.

Execution alternates between two phases.  A goal is a term, and
reducing it dispatches on its functor: a connective (``','/2``,
``'#'/2`` or ``';'/2``, whose left side may be a ``'*->'/2``) splits,
picks a disjunct or pushes a choicepoint.  Any other atom or compound is
a call, which switches to backchaining or runs a built-in (``X = Y`` is
``=/2``).  The program's predicates are looked up first, as no program
may define a built-in.  ``TRUE`` is known by identity and succeeds
before any lookup; ``CUT`` runs where both lookups miss.  A variable in
a goal slot (only programmatic goals have one) calls the term it is
bound to.

Backchaining works on clauses compiled to Python code the first time
they are tried (``mup.compiled``).  Only the lookup by name and arity
matches a call to its predicate; head matching trusts it.  The
predicate's dispatch, fixed at load, picks the candidates by the call's
first argument, in source order, and the first is tried where the
call is reduced.  For each candidate the clause's generated head matcher
runs first; only when it succeeds does the generated body builder make
the body (parts without variables are shared, not copied), which is
reduced one level deeper.  No clause is copied just to fail, and when no
other candidate remains no choicepoint is left behind.  A lone candidate
comes bare, not in a sequence, and is tried on its own path, which has
no choicepoint to consider.  ``_kunify`` (head matching) and
``fresh_rename`` (body building) are looked up as module globals at run
time, so ``mupbench`` can time them as layers.

The search itself is iterative: an explicit continuation (a linked list
of frames, each holding the next) plus a stack of choicepoints, so
derivation depth never eats the host call stack.  A choicepoint is a
continuation to resume, a trail mark to undo to and a boundary: an id
drawn from the variable counter when it is pushed.  The run is the
bottom choicepoint; failure ends when it pops it.  When a head match
succeeds and candidates remain, the choicepoint's continuation is a
``clauses`` frame that tries them, and every failure resumes the newest
live choicepoint.  Committed choice plants a commit frame after the
chosen disjunct; when control passes it, the choicepoint for the other
disjunct is dropped.  A ``#`` choicepoint keeps the ``#`` goal, all its
trace needs.  In ``first`` mode a ``#`` drops the chosen disjunct's own
choicepoints as well, which mirrors the cut-based encoding; a ``*->``
never does.  Otherwise the committed choicepoint is popped if it is on
top of the stack, and else only loses its continuation.

A guard is decided without a choicepoint.  The comparisons (``<``,
``>``, ``=<`` and ``>=`` on two arguments) that make up or lead a
``#``'s left side, alone or as the first goals of a ``','/2`` chain,
bind nothing, so they run where the ``#`` is reduced, each through its
``BUILTINS`` entry.  When one fails, the right side runs; when the whole
left side is comparisons and all hold, the run goes on past the ``#``.
Neither pushes a choicepoint or a commit frame, and the trace is the one
the choicepoint would give.  Otherwise the rest of the left side gets
the choicepoint and commit frame as above.  ``;`` and the condition of
``*->`` always push a choicepoint.

Trailing is conditional (``kernel.Bindings``).  The store's boundary is
the newest choicepoint's, so a binding of a variable made since the
newest choicepoint is not trailed, and a deterministic loop leaves no
trail behind.  A head matcher only binds: when it fails, the engine
undoes its bindings to the trail mark taken before the match, ahead of
the trace event and of the next candidate.  So while a call still has
more than one candidate, every binding of a head match is trailed.

Solutions come out of a lazy stream, ``Answers``: no search happens
between pulls, and once the stream has ended it tells how.
"""

from contextlib import suppress
from dataclasses import dataclass

from mup import kernel
from mup.builtins import BUILTINS, BuiltinContext, IoPorts
from mup.compiled import build_body as fresh_rename
from mup.compiled import match_head as _kunify
from mup.errors import MupError, UnknownPredicateError
from mup.syntax import (
    CONNECTIVES,
    CUT,
    TRUE,
    Clause,
    answer_vars_of,
    parse_query,
    pretty,
    pretty_goal,
)
from mup.kernel import Bindings, Compound, Const, Num, Var, _var_ids
from mup.terms import Solution

EXHAUSTED = "exhausted"
LIMITED = "limited"
ERRORED = "errored"

_GUARD_TESTS = frozenset(("<", ">", "=<", ">="))
COMMIT_MODES = ("soft", "first")
UNKNOWN_MODES = ("error", "fail")


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one solving run.

    commit_mode 'soft' keeps the chosen disjunct's own alternatives;
    'first' also commits to its first solution (the cut translation's
    behaviour).
    """

    commit_mode: str = "soft"
    occurs_check: bool = False
    depth_limit: int | None = None
    max_solutions: int | None = None
    unknown_predicate: str = "error"

    def __post_init__(self):
        if self.commit_mode not in COMMIT_MODES:
            raise ValueError("commit_mode must be one of %r" % (COMMIT_MODES,))
        if self.unknown_predicate not in UNKNOWN_MODES:
            raise ValueError(
                "unknown_predicate must be one of %r" % (UNKNOWN_MODES,)
            )
        if self.depth_limit is not None and self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be >= 1")


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    depth: int
    payload: str

    def line(self):
        return "%d %s %s" % (self.depth, self.kind, self.payload)


@dataclass
class QueryResult:
    solutions: list
    outcome: str
    error: MupError | None = None


# Continuation frames (a linked list: each frame's last field is the next):
#   ("goal", goal, depth, cut_barrier, next)
#   ("clauses", goal, clauses, idx, depth, next)  -- try clauses[idx:]; only
#       a choicepoint's continuation: a call tries its first candidate
#       where it is reduced
#   ("commit", choicepoint, cp_index, next)
#   ("exit", depth, payload, next)     -- tracing only
#   ("fail", None)                     -- resume the newest live choicepoint
_FAIL = ("fail", None)


class _ChoicePoint:
    """An alternative: the continuation to resume and the trail mark to undo to.

    ``hb`` is the trail boundary while it is the newest choicepoint: a
    fresh variable id, so every variable older than the choicepoint is
    below it.  ``hits`` is set for ``#`` and ``*->`` only: the
    depth-limit hit count at push time.  ``choice`` is the ``#`` goal
    itself (None for ``;`` and ``*->``); its trace reads the depth from
    ``cont``, the right side's frame.  A committed choicepoint has
    ``cont`` None and is never resumed; so has the run's own base, the
    bottom choicepoint.
    """

    __slots__ = ("cont", "mark", "hb", "hits", "choice")

    def __init__(self, cont, mark, hits=None, choice=None):
        self.cont = cont
        self.mark = mark
        self.hb = next(_var_ids)
        self.hits = hits
        self.choice = choice


class Engine:
    """One logical thread of search over an immutable, loaded program."""

    def __init__(self, program, cfg=None, io=None, trace=None):
        self.program = program
        self.cfg = cfg if cfg is not None else SolveConfig()
        self.io = io if io is not None else IoPorts()
        self.trace = trace

    # -- public streams ----------------------------------------------------

    def solve(self, goal, answer_vars=None):
        """The Solutions of ``goal``, in derivation order, as an ``Answers``
        stream.  ``goal`` is solved in place: its own variables hold the
        bindings until the stream ends, is closed or dropped."""
        ending = [None, None]
        return Answers(self._run(goal, answer_vars, ending), ending)

    def solve_collect(self, goal, answer_vars=None):
        """Collect up to max_solutions answers for an already-parsed goal."""
        answers = self.solve(goal, answer_vars)
        solutions = []
        with suppress(MupError):  # the stream keeps it as its error
            for solution in answers:
                solutions.append(solution)
        return QueryResult(solutions, answers.outcome, answers.error)

    def run_query(self, text):
        """Parse and solve ``text``; collect up to max_solutions answers."""
        query = parse_query(text)
        return self.solve_collect(query.goal, query.answer_vars)

    # -- machine -----------------------------------------------------------

    def _emit(self, kind, depth, payload):
        self.trace(TraceEvent(kind, depth, payload))

    def _emit_choice(self, depth, choice, taken):
        """Trace the commit of the ``#`` goal ``choice`` to side ``taken``."""
        left, right = choice.args
        sides = [("left", left), ("right", right)]
        if taken == "right":
            sides.reverse()
        for kind, (side, goal) in zip(("choice_taken", "choice_discarded"), sides):
            self._emit(kind, depth, "%s %s" % (side, pretty_goal(goal)))

    def _emit_unify(self, values, depth, clause, goal):
        """Trace a head match; the source head prints as a renamed copy would."""
        self._emit(
            "unify_fail" if values is None else "unify_ok", depth,
            "%s ~ %s" % (pretty(clause.head), pretty(goal)),
        )

    def _run(self, goal, answer_vars, ending):
        """Drive the machine on ``goal`` in a store of its own; yields the
        Solutions, at most ``max_solutions``, and ``ending`` gets the
        outcome and error.  However it ends, it undoes the bindings of the
        query's variables."""
        if answer_vars is None:
            answer_vars = answer_vars_of(goal)
        cfg = self.cfg
        trace = self.trace
        predicates = self.program.predicates
        occ = cfg.occurs_check
        depth_limit = cfg.depth_limit
        first_mode = cfg.commit_mode == "first"
        quota = cfg.max_solutions  # Solutions still to give
        hits = 0  # calls cut off by the depth limit
        bindings = Bindings()
        ctx = BuiltinContext(bindings, self.io, occ)
        # The run's base is the bottom choicepoint: the query's own
        # variables are below its boundary, so they are undone at the end.
        base = _ChoicePoint(None, 0)
        cps = [base]
        bindings.hb = base.hb
        # The start frame's cut barrier is 1, so a cut keeps the base.
        cont = ("goal", goal, 0, 1, None)

        try:
            while True:
                if cont is None:
                    if quota == 0:  # an answer lay past max_solutions
                        ending[0] = LIMITED
                        return
                    yield Solution.from_bindings(answer_vars)
                    if quota is not None:
                        quota -= 1
                    cont = _FAIL

                frame = cont
                tag = frame[0]

                if tag == "goal":
                    _, goal, depth, cutb, cont = frame
                    if trace is not None:
                        self._emit("reduce", depth, pretty_goal(goal))

                    if goal is TRUE:
                        continue

                    gt = type(goal)
                    if gt is Compound:
                        name = goal.functor
                        args = goal.args
                        arity = len(args)
                        if arity == 2 and name in CONNECTIVES:
                            left, right = args
                            if name == ",":
                                cont = (
                                    "goal", left, depth, cutb,
                                    ("goal", right, depth, cutb, cont),
                                )
                                continue
                            # A choicepoint for the right side; "#" and
                            # "*->" commit to the left once it succeeds.
                            alt = ("goal", right, depth, cutb, cont)
                            if name == "#":
                                # The comparisons that lead the left side bind
                                # nothing, so they are decided in place, with a
                                # choicepoint's trace; a choicepoint is pushed
                                # only for the rest of the left side.
                                rest = left
                                while rest is not None:
                                    test = rest
                                    after = None
                                    if (type(test) is Compound and test.functor == ","
                                            and len(test.args) == 2):
                                        test, after = test.args
                                    if (type(test) is not Compound
                                            or test.functor not in _GUARD_TESTS
                                            or len(test.args) != 2):
                                        break
                                    if trace is not None:
                                        if after is not None:
                                            self._emit("reduce", depth, pretty_goal(rest))
                                        self._emit("reduce", depth, pretty_goal(test))
                                    if BUILTINS[(test.functor, 2)].fn(ctx, test.args):
                                        rest = after
                                        if rest is None and trace is not None:
                                            self._emit_choice(depth, goal, "left")
                                    else:
                                        if trace is not None:
                                            self._emit_choice(depth, goal, "right")
                                        cont = alt
                                        rest = None
                                if rest is None:
                                    continue
                                cp = _ChoicePoint(alt, len(bindings), hits, goal)
                                cont = ("commit", cp, len(cps), cont)
                                left = rest
                            elif (type(left) is Compound and left.functor == "*->"
                                  and len(left.args) == 2):
                                cp = _ChoicePoint(alt, len(bindings), hits)
                                left, then = left.args
                                cont = ("commit", cp, len(cps),
                                        ("goal", then, depth, cutb, cont))
                            else:  # ";"
                                cp = _ChoicePoint(alt, len(bindings))
                            cps.append(cp)
                            bindings.hb = cp.hb
                            cont = ("goal", left, depth, cutb, cont)
                            continue
                        key = (name, arity)
                    elif gt is Const:
                        args = ()
                        key = (goal.name, 0)
                    else:  # a programmatic goal slot: call the term bound to it
                        goal = kernel.deref(goal)
                        gt = type(goal)
                        if gt is Var:
                            raise MupError("goal is an unbound variable")
                        if gt is Num:
                            raise MupError(
                                "number is not a callable goal: %s" % pretty(goal)
                            )
                        if gt is not Compound and gt is not Const:
                            raise MupError("cannot solve goal: %r" % (goal,))
                        cont = ("goal", goal, depth, cutb, cont)
                        continue
                    pred = predicates.get(key)
                    if pred is None:  # no program defines a built-in's key
                        builtin = BUILTINS.get(key)
                        if builtin is not None:
                            if not builtin.fn(ctx, args):
                                cont = _FAIL
                            continue
                        if goal is CUT:
                            if cutb < len(cps):
                                del cps[cutb:]
                                bindings.hb = cps[-1].hb
                            continue
                        if cfg.unknown_predicate == "error":
                            raise UnknownPredicateError(
                                "unknown predicate %s/%d" % key
                            )
                        cont = _FAIL
                        continue
                    if depth_limit is not None and depth + 1 > depth_limit:
                        hits += 1
                        cont = _FAIL
                        continue
                    if trace is not None:
                        payload = pretty(goal)
                        self._emit("backchain_enter", depth, payload)
                        cont = ("exit", depth, payload, cont)
                    clauses = pred.candidates(goal)
                    if type(clauses) is Clause:
                        # A lone candidate leaves no choicepoint, so its head
                        # match trails by the boundary as it stands.
                        mark = len(bindings)
                        values = _kunify(clauses, goal, bindings, occ)
                        if values is None:
                            while len(bindings) > mark:
                                bindings.pop().ref = None
                            cont = _FAIL
                        else:
                            body = fresh_rename(clauses, values)
                            cont = ("goal", body, depth + 1, len(cps), cont)
                        if trace is not None:
                            self._emit_unify(values, depth, clauses, goal)
                        continue
                    idx = 0

                elif tag == "clauses":  # a choicepoint retries the rest
                    _, goal, clauses, idx, depth, cont = frame

                elif tag == "fail":
                    while True:
                        cp = cps.pop()
                        if not cps:  # the base is popped: the run has failed
                            ending[0] = LIMITED if hits else EXHAUSTED
                            return
                        kernel.undo_to(bindings, cp.mark)
                        if cp.cont is None:
                            continue
                        if cp.hits is not None and cp.hits != hits:
                            # The first branch was cut off by the depth limit,
                            # so its failure is not finite: do not fall through.
                            continue
                        if trace is not None and cp.choice is not None:
                            self._emit_choice(cp.cont[2], cp.choice, "right")
                        cont = cp.cont
                        break
                    bindings.hb = cps[-1].hb
                    continue

                elif tag == "commit":
                    _, cp, index, cont = frame
                    if index < len(cps) and cps[index] is cp and cp.cont is not None:
                        if trace is not None and cp.choice is not None:
                            self._emit_choice(cp.cont[2], cp.choice, "left")
                        cp.cont = None
                        # In first mode a "#" also drops the left side's own
                        # choicepoints; a "*->" never does.
                        if (first_mode and cp.choice is not None
                                or index == len(cps) - 1):
                            del cps[index:]
                            bindings.hb = cps[-1].hb
                    continue

                else:  # "exit"
                    _, depth, payload, cont = frame
                    self._emit("backchain_exit", depth, payload)
                    continue

                # Try clauses[idx:] in source order: match the head, and
                # build the body only on a match.  Leave a choicepoint only
                # if other candidates remain.
                mark = len(bindings)
                # While other candidates remain, a failed match is undone
                # here through the trail, so every binding is trailed.
                last = len(clauses) - 1
                if idx < last:
                    bindings.hb = kernel.ALL
                while idx <= last:
                    clause = clauses[idx]
                    idx += 1
                    values = _kunify(clause, goal, bindings, occ)
                    if values is not None:
                        break
                    while len(bindings) > mark:  # undo the failed match
                        bindings.pop().ref = None
                    if trace is not None:
                        self._emit_unify(None, depth, clause, goal)
                    if idx == last:  # the last candidate is left
                        bindings.hb = cps[-1].hb
                else:
                    cont = _FAIL
                    continue
                if trace is not None:
                    self._emit_unify(values, depth, clause, goal)
                cutb = len(cps)
                if idx <= last:
                    cp = _ChoicePoint(("clauses", goal, clauses, idx, depth, cont), mark)
                    cps.append(cp)
                    bindings.hb = cp.hb
                body = fresh_rename(clause, values)
                cont = ("goal", body, depth + 1, cutb, cont)
        except RecursionError:
            # Raised in this handler, the MupError skips the one below.
            ending[:] = ERRORED, MupError("term nested too deeply for the host stack")
            raise ending[1] from None
        except MupError as exc:
            ending[:] = ERRORED, exc
            raise
        finally:
            kernel.undo_to(bindings, base.mark)


class Answers:
    """A query's lazy stream of Solutions, at most ``max_solutions``.

    ``outcome`` is None until the stream ends, and then EXHAUSTED if the
    search finished, LIMITED if the depth limit cut it off or an answer
    lay past ``max_solutions``, or ERRORED if it raised ``error``, a
    MupError.  ``close()`` ends it early, with ``outcome`` None.  However
    it ends, the run's bindings are undone and ``outcome`` stays as it is.
    """

    # The run is a generator that does not refer to the stream: a cycle
    # would keep a dropped stream's bindings until the cyclic collector ran.
    # A for loop iterates the generator itself, with no call per answer.
    __slots__ = ("_solutions", "_ending")

    def __init__(self, solutions, ending):
        self._solutions = solutions
        self._ending = ending  # [outcome, error], set when the run ends

    outcome = property(lambda self: self._ending[0])
    error = property(lambda self: self._ending[1])

    def __iter__(self):
        return self._solutions

    def __next__(self):
        return next(self._solutions)

    def close(self):
        self._solutions.close()
