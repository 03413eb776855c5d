"""Brute-force reference semantics for differential testing.

One search, ``_stream``, over the same terms the engine uses (a goal is
a term, whose connectives are read by functor), but sharing none of its
machinery: no binding trail, no choicepoint stack, no kernel
unification, no arithmetic evaluator.  Substitutions here are persistent
dicts, search is plain recursive enumeration, and every call is bounded
by a backchain-depth limit.  The search reads a choice goal in one of
two ways:

* ``provable`` answers "does ANY derivation of bounded depth exist",
  treating a choice goal angelically (either disjunct may be picked).
* ``count_solutions_bruteforce`` reproduces the engine's left-biased
  committed semantics (both commit modes) and is compared against the
  engine solution-for-solution.

The module also owns the randomized corpus generator and the
``selftest`` driver behind the CLI subcommand of the same name.
Generated programs are stratified (a predicate only calls strictly
lower-tier predicates), so every derivation is finite and fits the
depth bound.
"""

import itertools
import operator
import random
from dataclasses import dataclass, field

from mup.errors import MupError
from mup.syntax import (
    Clause,
    CUT,
    Program,
    TRUE,
    answer_vars_of,
    connective,
    format_program,
    pretty_goal,
)
from mup.terms import Compound, Const, Num, Solution, Var, fresh_var

# ---------------------------------------------------------------------------
# Persistent-substitution machinery (independent of the engine kernel)


def _walk(term, subst):
    while type(term) is Var:
        nxt = subst.get(term.id)
        if nxt is None:
            return term
        term = nxt
    return term


def _walk_deep(term, subst):
    term = _walk(term, subst)
    if type(term) is Compound:
        return Compound(
            term.functor, tuple(_walk_deep(a, subst) for a in term.args)
        )
    return term


def _unify(t, s, subst):
    """Unify into a NEW substitution dict; None on failure."""
    t = _walk(t, subst)
    s = _walk(s, subst)
    tt = type(t)
    ts = type(s)
    if tt is Var:
        if ts is Var and s.id == t.id:
            return subst
        new = dict(subst)
        new[t.id] = s
        return new
    if ts is Var:
        new = dict(subst)
        new[s.id] = t
        return new
    if tt is not ts:
        return None
    if tt is Const:
        return subst if t.name == s.name else None
    if tt is Num:
        if type(t.value) is type(s.value) and t.value == s.value:
            return subst
        return None
    if t.functor != s.functor or len(t.args) != len(s.args):
        return None
    for a, b in zip(t.args, s.args):
        subst = _unify(a, b, subst)
        if subst is None:
            return None
    return subst


def _rename_vars(term, mapping):
    tt = type(term)
    if tt is Var:
        new = mapping.get(term.id)
        if new is None:
            new = fresh_var(term.name)
            mapping[term.id] = new
        return new
    if tt is Compound:
        return Compound(term.functor, [_rename_vars(a, mapping) for a in term.args])
    return term


def _eval_arith(term, subst):
    """Tiny arithmetic evaluator, separate from the engine's."""
    term = _walk(term, subst)
    tt = type(term)
    if tt is Num:
        return term.value
    if tt is Compound:
        op = term.functor
        if op == "-" and len(term.args) == 1:
            value = _eval_arith(term.args[0], subst)
            return None if value is None else -value
        if len(term.args) == 2 and op in _ARITH:
            a = _eval_arith(term.args[0], subst)
            b = _eval_arith(term.args[1], subst)
            if a is None or b is None:
                return None
            if op in ("//", "mod") and not (type(a) is int and type(b) is int):
                return None
            try:
                return _ARITH[op](a, b)
            except ZeroDivisionError:
                return None
    return None


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "mod": operator.mod,
}

_COMPARES = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "=<": operator.le}


# ---------------------------------------------------------------------------
# The search, under either reading of choice

# The oracles recurse on the host stack; past its limit they raise this,
# as the engine does.
_TOO_DEEP = "oracle: term nested too deeply for the host stack"


def provable(program, goal, depth):
    """True iff some derivation of backchain depth <= ``depth`` exists.

    A choice goal may pick either disjunct (so, for bare provability, it
    coincides with classical disjunction); conjunction needs both sides;
    clauses are tried exhaustively.  False means "no proof within the
    depth bound", not disproof.
    """
    try:
        for _ in _stream(program, goal, {}, depth, 0, "angelic", [0]):
            return True
    except RecursionError:
        raise MupError(_TOO_DEEP) from None
    return False


def count_solutions_bruteforce(program, goal, depth, mode="soft",
                               answer_vars=None):
    """Solutions of ``goal`` under committed-choice semantics.

    Independent twin of the engine's search: same left-first, committed
    meaning of choice (``mode`` picks soft or first commit), same depth
    accounting, different implementation strategy.  Returns Solution
    objects in derivation order.
    """
    solutions, _ = bruteforce_run(program, goal, depth, mode, answer_vars)
    return solutions


def bruteforce_run(program, goal, depth, mode="soft", answer_vars=None):
    """Like count_solutions_bruteforce but also reports depth truncation."""
    if mode not in ("soft", "first"):
        raise ValueError("mode must be 'soft' or 'first'")
    if answer_vars is None:
        answer_vars = answer_vars_of(goal)
    hits = [0]
    solutions = []
    try:
        for subst in _stream(program, goal, {}, depth, 0, mode, hits):
            solutions.append(
                Solution(
                    (v.name, _walk_deep(v, subst)) for v in answer_vars
                )
            )
    except RecursionError:
        raise MupError(_TOO_DEEP) from None
    return solutions, hits[0] > 0


def _stream(program, goal, subst, limit, depth, mode, hits):
    """Yield each substitution that proves ``goal``, in derivation order.

    ``mode`` reads ``G0 # G1``: "soft" and "first" commit to the left
    side once it succeeds, as the engine does; "angelic" tries both
    sides, as ``;`` does.  ``hits[0]`` counts the calls the depth bound
    cuts off.
    """
    goal = _walk(goal, subst)
    kind = connective(goal)
    if kind == ",":
        for s1 in _stream(program, goal.args[0], subst, limit, depth, mode, hits):
            yield from _stream(program, goal.args[1], s1, limit, depth, mode, hits)
        return
    if kind == "#" and mode != "angelic":
        before = hits[0]
        yielded = False
        for s1 in _stream(program, goal.args[0], subst, limit, depth, mode, hits):
            yielded = True
            yield s1
            if mode == "first":
                break
        if yielded:
            return
        if hits[0] != before:
            # Left was cut off by the depth bound without ever succeeding:
            # its failure is not finite, so the right disjunct stays
            # untried (mirrors the engine).
            return
        yield from _stream(program, goal.args[1], subst, limit, depth, mode, hits)
        return
    if kind == "#" or kind == ";":
        yield from _stream(program, goal.args[0], subst, limit, depth, mode, hits)
        yield from _stream(program, goal.args[1], subst, limit, depth, mode, hits)
        return
    # A call: a built-in answers at once; otherwise each clause whose
    # renamed head unifies with the call gives its renamed body, one
    # clause at a time, in source order.
    if type(goal) is Compound:
        name, arity = goal.functor, len(goal.args)
    elif type(goal) is Const:
        name, arity = goal.name, 0
    else:
        raise MupError("oracle cannot call %r" % (goal,))
    answers = _builtin_answers(goal, name, arity, subst)
    if answers is not None:
        yield from answers
        return
    if goal is CUT or kind == "*->":
        raise MupError("oracle cannot handle goal: %r" % (goal,))
    # A call with no clauses fails finitely, as in the engine: only a
    # call that could backchain is cut off by the bound.
    clauses = program.clauses_for(name, arity)
    if clauses and depth + 1 > limit:
        hits[0] += 1
        return
    for clause in clauses or ():
        mapping = {}
        head = _rename_vars(clause.head, mapping)
        body = _rename_vars(clause.body, mapping)
        new = _unify(head, goal, subst)
        if new is None:
            continue
        if body is TRUE:  # a fact
            yield new
        else:
            yield from _stream(program, body, new, limit, depth + 1, mode, hits)


def _builtin_answers(term, name, arity, subst):
    """Answers of a built-in atom, or None if it is not a built-in.

    Covers the fragment the corpus uses: =/2, true/fail, comparisons and
    is/2.  A goal ``X = Y`` is a call to =/2, so this is its one path.
    """
    if arity == 2 and name == "=":
        new = _unify(term.args[0], term.args[1], subst)
        return [new] if new is not None else []
    if arity == 0:
        if name == "true":
            return [subst]
        if name in ("fail", "false"):
            return []
        return None
    if arity == 2 and name in _COMPARES:
        a = _eval_arith(term.args[0], subst)
        b = _eval_arith(term.args[1], subst)
        if a is None or b is None:
            raise MupError("oracle: comparison on non-arithmetic arguments")
        return [subst] if _COMPARES[name](a, b) else []
    if arity == 2 and name == "is":
        value = _eval_arith(term.args[1], subst)
        if value is None:
            raise MupError("oracle: is/2 on non-arithmetic argument")
        new = _unify(term.args[0], Num(value), subst)
        return [new] if new is not None else []
    return None


# ---------------------------------------------------------------------------
# Randomized corpus

_CONSTS = ("a", "b", "c")

# (name, arity, tier): a body may only call predicates of a lower tier,
# which keeps every generated program terminating.
_PREDS = (
    ("p", 0, 3),
    ("p", 1, 3),
    ("p", 2, 3),
    ("q", 1, 2),
    ("f", 1, 1),
)


@dataclass
class CorpusCase:
    program: Program
    goal: object
    seed: int

    def describe(self):
        return "%% seed %d\n%s?- %s.\n" % (
            self.seed,
            format_program(self.program),
            pretty_goal(self.goal),
        )


def _gen_term(rng, pool, funcs=True):
    # Function symbols wrap ground subterms only: unification can then
    # never bind a variable to a term containing itself, so the corpus
    # stays clear of cyclic stores (undefined without the occurs check).
    r = rng.random()
    if r < 0.45 and pool:
        return rng.choice(pool)
    if funcs and r < 0.55:
        return Compound("g", (_gen_term(rng, [], funcs=False),))
    if funcs and r < 0.60:
        return Compound(
            "h",
            (_gen_term(rng, [], funcs=False), _gen_term(rng, [], funcs=False)),
        )
    return Const(rng.choice(_CONSTS))


def _gen_atom(rng, pool, tier):
    candidates = [(n, a) for n, a, t in _PREDS if t < tier]
    name, arity = rng.choice(candidates)
    args = tuple(_gen_term(rng, pool) for _ in range(arity))
    return Compound(name, args) if arity else Const(name)


def _gen_leaf(rng, pool, tier):
    r = rng.random()
    if tier > 1 and r < 0.5:
        return _gen_atom(rng, pool, tier)
    if r < 0.8:
        return Compound("=", (_gen_term(rng, pool), _gen_term(rng, pool)))
    if r < 0.9:
        return TRUE
    return Const("fail")


def _gen_goal(rng, pool, tier, depth, names=None):
    """A random goal; ``names`` numbers the body-only variables of a clause."""
    if names is None:
        names = itertools.count()
    if depth <= 0:
        return _gen_leaf(rng, pool, tier)
    r = rng.random()
    if r < 0.30:
        return Compound(",", (
            _gen_goal(rng, pool, tier, depth - 1, names),
            _gen_goal(rng, pool, tier, depth - 1, names),
        ))
    if r < 0.50:
        return Compound("#", (
            _gen_goal(rng, pool, tier, depth - 1, names),
            _gen_goal(rng, pool, tier, depth - 1, names),
        ))
    if r < 0.62:
        return Compound(";", (
            _gen_goal(rng, pool, tier, depth - 1, names),
            _gen_goal(rng, pool, tier, depth - 1, names),
        ))
    if r < 0.70:
        # A body-only variable: each clause try renames it, so it is
        # existentially quantified.
        var = fresh_var("E%d" % next(names))
        return Compound(",", (
            Compound("=", (var, _gen_term(rng, pool))),
            _gen_goal(rng, pool + [var], tier, depth - 1, names),
        ))
    return _gen_leaf(rng, pool, tier)


def generate_program(rng):
    """Small random stratified program: <= 6 clauses, body depth <= 3."""
    clauses = []
    budget = 6
    preds = list(_PREDS)
    rng.shuffle(preds)
    for name, arity, tier in preds:
        if budget <= 0:
            break
        n_clauses = rng.randint(1, min(2, budget))
        for _ in range(n_clauses):
            head_vars = [fresh_var(nm) for nm in ("X", "Y")[:arity]]
            head_args = tuple(
                v if rng.random() < 0.6 else _gen_term(rng, [], funcs=True)
                for v in head_vars
            )
            head = Compound(name, head_args) if arity else Const(name)
            pool = [a for a in head_args if type(a) is Var]
            names = itertools.count()
            if rng.random() < 0.5:
                body = Compound("#", (
                    _gen_goal(rng, pool, tier, rng.randint(0, 2), names),
                    _gen_goal(rng, pool, tier, rng.randint(0, 2), names),
                ))
            else:
                body = _gen_goal(rng, pool, tier, rng.randint(0, 3), names)
            clauses.append(Clause(head, body))
            budget -= 1
    return Program(clauses)


def generate_query(rng, fresh_names=("Q", "R")):
    """Ground-ish query goal: atoms whose conjuncts share no variables."""
    def atom(var):
        name, arity, _ = rng.choice([p for p in _PREDS if p[1] > 0])
        args = []
        used_var = False
        for _ in range(arity):
            if var is not None and not used_var and rng.random() < 0.5:
                args.append(var)
                used_var = True
            else:
                args.append(_gen_term(rng, [], funcs=True))
        return Compound(name, tuple(args))

    r = rng.random()
    if r < 0.55:
        return atom(fresh_var(fresh_names[0]))
    if r < 0.75:
        left = atom(fresh_var(fresh_names[0]))
        return Compound(",", (left, atom(fresh_var(fresh_names[1]))))
    if r < 0.9:
        shared = fresh_var(fresh_names[0])
        return Compound("#", (atom(shared), atom(shared)))
    return Const("p")


def generate_case(seed):
    rng = random.Random(seed)
    program = generate_program(rng)
    goal = generate_query(rng)
    return CorpusCase(program, goal, seed)


# ---------------------------------------------------------------------------
# Differential selftest


@dataclass
class SelftestReport:
    cases: int
    depth: int
    solution_mismatches: list = field(default_factory=list)
    success_mismatches: list = field(default_factory=list)
    angelic_only: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.solution_mismatches and not self.success_mismatches

    def summary(self):
        lines = [
            "selftest: %d cases, depth %d" % (self.cases, self.depth),
            "  engine vs left-biased oracle, answer sequences: %d mismatches"
            % len(self.solution_mismatches),
            "  engine vs angelic oracle, success: %d mismatches"
            % len(self.success_mismatches),
            "  angelic-only successes (reported, not errors): %d"
            % len(self.angelic_only),
        ]
        return "\n".join(lines)


def selftest(seed=0, cases=300, depth=10):
    """Differential run of engine vs both oracles over a random corpus."""
    from mup.engine import Engine, SolveConfig

    report = SelftestReport(cases=cases, depth=depth)
    for i in range(cases):
        case = generate_case(seed * 1_000_003 + i)
        answer_vars = answer_vars_of(case.goal)
        engine_success = None
        for mode in ("soft", "first"):
            # Generated programs may leave predicates undefined; both
            # sides read that as plain failure.
            cfg = SolveConfig(
                commit_mode=mode, depth_limit=depth, unknown_predicate="fail"
            )
            engine = Engine(case.program, cfg)
            result = engine.solve_collect(case.goal, answer_vars)
            expected, limited = bruteforce_run(
                case.program, case.goal, depth, mode, answer_vars
            )
            if mode == "soft":
                engine_success = bool(result.solutions)
            if result.solutions != expected or (
                (result.outcome == "limited") != limited
            ):
                report.solution_mismatches.append((case, mode))
        angelic = provable(case.program, case.goal, depth)
        if engine_success and not angelic:
            report.success_mismatches.append(case)
        if angelic and not engine_success:
            report.angelic_only.append(case)
    return report
