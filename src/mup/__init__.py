"""mup: Horn-clause logic programming with committed-choice disjunction.

A goal ``G0 # G1`` runs the first disjunct that can succeed and discards
the other, giving mutual exclusion without Prolog's cut.  The package
bundles the interpreter (parser, unifier, solver, REPL), a transpiler to
cut-based Prolog, and a brute-force oracle used for differential testing
of the semantics.
"""

from mup.builtins import IoPorts, eval_arith
from mup.engine import (
    Answers,
    Engine,
    QueryResult,
    SolveConfig,
    TraceEvent,
)
from mup.errors import (
    ArithTypeError,
    EvalError,
    InstantiationError,
    InternalError,
    LoadError,
    MupError,
    MupSyntaxError,
    TranslateError,
    UnknownPredicateError,
)
from mup.syntax import (
    Clause,
    Program,
    parse_program,
    parse_query,
    parse_term,
    pretty,
    pretty_clause,
    pretty_goal,
)
from mup.kernel import Bindings, Compound, Const, Num, Var, unify
from mup.terms import Solution

__version__ = "0.1.0"

# The term kernel (``mup.kernel``) is pure Python; benchmark stamps record
# this name.
kernel_impl = "python"


def __getattr__(name):
    # Solving needs neither the oracle nor the transpiler, so ``import mup``
    # loads them only when one of their names is first read.
    if name in ("count_solutions_bruteforce", "provable", "selftest"):
        from mup import oracle as module
    elif name == "translate":
        from mup import transpile as module
    else:
        raise AttributeError("module 'mup' has no attribute %r" % (name,))
    return getattr(module, name)


__all__ = [
    "Answers",
    "ArithTypeError",
    "Bindings",
    "Clause",
    "Compound",
    "Const",
    "Engine",
    "EvalError",
    "InstantiationError",
    "InternalError",
    "IoPorts",
    "LoadError",
    "MupError",
    "MupSyntaxError",
    "Num",
    "Program",
    "QueryResult",
    "Solution",
    "SolveConfig",
    "TraceEvent",
    "TranslateError",
    "UnknownPredicateError",
    "Var",
    "count_solutions_bruteforce",
    "eval_arith",
    "kernel_impl",
    "parse_program",
    "parse_query",
    "parse_term",
    "pretty",
    "pretty_clause",
    "pretty_goal",
    "provable",
    "selftest",
    "translate",
    "unify",
]
