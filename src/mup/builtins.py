"""Built-in predicates: arithmetic comparison, is/2, read/1, write/1,
writeq/1.

A program that tries to define a (name, arity) listed here is rejected
at load time, so the engine, which looks a call up among the program's
predicates before ``BUILTINS``, never resolves one against user clauses.

All built-ins here are deterministic: they succeed at most once and leave
no choicepoint.  I/O side effects are not undone on backtracking.

The arithmetic built-ins take plain numbers in place: a comparison reads
a side that dereferences to a number without calling ``eval_arith``, and
``is/2`` binds an unbound left side with ``kernel.bind`` instead of
unifying.  Each is still called through its ``BUILTINS`` entry.
"""

import operator
import sys
from dataclasses import dataclass, field
from math import isfinite

from mup import kernel, syntax
from mup.errors import ArithTypeError, EvalError, InstantiationError
from mup.terms import Compound, Const, Num, Var

END_OF_FILE = "end_of_file"


class IoPorts:
    """Pluggable term input / text output pair owned by one engine.

    ``read_line`` returns the next input line (one term, ``.``-terminated)
    or None at end of input; ``write`` appends text to the output sink.
    """

    def __init__(self, read_line=None, write=None):
        self.read_line = read_line if read_line is not None else _stdin_line
        self.write = write if write is not None else sys.stdout.write
        self.out_buffer = None

    @classmethod
    def scripted(cls, lines):
        """Queue of input lines plus a captured output buffer (for tests)."""
        import io as _io

        buffer = _io.StringIO()
        iterator = iter(list(lines))

        def read_line():
            return next(iterator, None)

        ports = cls(read_line, buffer.write)
        ports.out_buffer = buffer
        return ports

    def captured(self):
        return self.out_buffer.getvalue() if self.out_buffer is not None else ""


def _stdin_line():
    line = sys.stdin.readline()
    return line if line else None


class BuiltinContext:
    """What a built-in may touch: the binding store and the I/O ports.

    ``unify`` trails as the engine does, by the store's current boundary.
    """

    __slots__ = ("bindings", "io", "occurs_check")

    def __init__(self, bindings, io, occurs_check=False):
        self.bindings = bindings
        self.io = io
        self.occurs_check = occurs_check

    def unify(self, t, s):
        return kernel.unify(t, s, self.bindings, self.occurs_check)


# ---------------------------------------------------------------------------
# Arithmetic

_INT_ONLY = ("//", "mod")
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "mod": operator.mod,
}
_EXACT = ("+", "-", "*")  # never raise, and stay ints, on two ints
_NEGATE = "neg"  # marks a unary minus on the work stack


def eval_arith(term):
    """Evaluate an arithmetic expression to a Python number.

    Supports + - * / on ints and floats (/ always yields a float),
    // and mod on ints only, and unary minus.  Iterative: operands are
    evaluated left to right on a work stack, so a long chain such as
    ``1+1+...+1`` needs no host stack.  A variable met again inside its
    own value (a cyclic binding) is an EvalError.

    Number fast paths: variables are dereferenced inline; a number is its
    value; a whole expression that is one operator on two numbers, the
    common ``N - 1``, is applied at once, and ``+``, ``-`` and ``*`` on
    two ints skip ``_apply``, whose checks cannot fire for them.
    """
    t = term
    while type(t) is Var and t.ref is not None:
        t = t.ref
    tt = type(t)
    if tt is Num:
        return t.value
    if tt is Compound and len(t.args) == 2 and t.functor in _BINARY:
        a, b = t.args
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        if type(a) is Num and type(b) is Num:
            op = t.functor
            a = a.value
            b = b.value
            if op in _EXACT and type(a) is int and type(b) is int:
                return _BINARY[op](a, b)
            return _apply(op, a, b)
    # Subterms to evaluate, operators to apply, and the ids of variables
    # whose values are done; a cycle through ``term`` is caught one level down.
    todo = [t]
    values = []  # operands evaluated so far
    expanding = {}  # ids of the variables whose values are being evaluated
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is str:
            if t is _NEGATE:
                values.append(-values.pop())
            else:
                b = values.pop()
                values.append(_apply(t, values.pop(), b))
            continue
        if tt is int:
            del expanding[t]
            continue
        if tt is Var:
            vid = t.id
            while tt is Var and t.ref is not None:
                t = t.ref
                tt = type(t)
            if tt is Compound:
                if vid in expanding:
                    raise EvalError("arithmetic on a cyclic term")
                expanding[vid] = True
                todo.append(vid)
        if tt is Num:
            values.append(t.value)
            continue
        if tt is Var:
            raise InstantiationError(
                "arguments of arithmetic are not sufficiently instantiated"
            )
        if tt is Compound:
            op = t.functor
            args = t.args
            if len(args) == 1 and op == "-":
                todo.append(_NEGATE)
                todo.append(args[0])
                continue
            if len(args) == 2 and op in _BINARY:
                todo.append(op)
                todo.append(args[1])
                todo.append(args[0])
                continue
        raise ArithTypeError(
            "not an arithmetic expression: %s" % syntax.pretty(kernel.resolve(t))
        )
    return values[0]


def _apply(op, a, b):
    if op in _INT_ONLY and not (type(a) is int and type(b) is int):
        raise ArithTypeError("%s needs integer operands" % op)
    try:
        value = _BINARY[op](a, b)
    except ZeroDivisionError:
        raise EvalError("division by zero") from None
    except OverflowError:
        raise EvalError("arithmetic overflow") from None
    if type(value) is float and not isfinite(value):
        raise EvalError("arithmetic overflow")
    return value


def _cmp(test):
    """A comparison built-in; ``test`` is one of ``operator``'s comparisons."""

    def run(ctx, args):
        a, b = args
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        return test(
            a.value if type(a) is Num else eval_arith(a),
            b.value if type(b) is Num else eval_arith(b),
        )

    return run


def _is(ctx, args):
    """``X is E``: an unbound ``X`` is bound in place, as ``unify`` would
    bind it; a bound one is unified with the value."""
    value = eval_arith(args[1])
    x = args[0]
    while type(x) is Var:
        if x.ref is None:
            kernel.bind(ctx.bindings, x, Num(value))
            return True
        x = x.ref
    return ctx.unify(x, Num(value))


def _unify_builtin(ctx, args):
    return ctx.unify(args[0], args[1])


def _true(ctx, args):
    return True


def _fail(ctx, args):
    return False


def _read(ctx, args):
    line = ctx.io.read_line()
    if line is None:
        return ctx.unify(args[0], Const(END_OF_FILE))
    term = syntax.parse_term(line)
    return ctx.unify(args[0], term)


def _writer(quoted):
    """``write/1`` prints atoms bare; ``writeq/1`` quotes them to read back."""

    def run(ctx, args):
        term = kernel.resolve(args[0])
        ctx.io.write(syntax.pretty(term, quoted=quoted))
        return True

    return run


def _nl(ctx, args):
    ctx.io.write("\n")
    return True


@dataclass(frozen=True)
class Builtin:
    name: str
    arity: int
    fn: object = field(repr=False)


def _table(*entries):
    return {(b.name, b.arity): b for b in entries}


BUILTINS = _table(
    Builtin("true", 0, _true),
    Builtin("fail", 0, _fail),
    Builtin("false", 0, _fail),
    Builtin("=", 2, _unify_builtin),
    Builtin("<", 2, _cmp(operator.lt)),
    Builtin(">", 2, _cmp(operator.gt)),
    Builtin(">=", 2, _cmp(operator.ge)),
    Builtin("=<", 2, _cmp(operator.le)),
    Builtin("is", 2, _is),
    Builtin("read", 1, _read),
    Builtin("write", 1, _writer(False)),
    Builtin("writeq", 1, _writer(True)),
    Builtin("nl", 0, _nl),
)
