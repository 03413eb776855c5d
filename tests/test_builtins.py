import dataclasses
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mup.builtins import BUILTINS, BuiltinContext, IoPorts, eval_arith
from mup.engine import Engine
from mup.errors import ArithTypeError, EvalError, InstantiationError, LoadError
from mup.kernel import Bindings
from mup.syntax import _CONTROL, TRUE, Clause, Program, parse_program, parse_query
from mup.terms import Compound, Const, Num, Var, fresh_var

from conftest import collect


def expr(text):
    from mup.syntax import parse_term

    return parse_term(text + " .")


def test_eval_arith_literals_and_sums():
    b = Bindings()
    assert eval_arith(Num(3)) == 3
    x = fresh_var("X")
    b.bind(x, Num(2))
    assert eval_arith(Compound("+", (x, Num(1)))) == 3


def test_eval_arith_instantiation_error():
    x = fresh_var("X")
    with pytest.raises(InstantiationError):
        eval_arith(Compound("+", (x, Num(1))))


def test_eval_arith_type_errors():
    with pytest.raises(ArithTypeError):
        eval_arith(Const("a"))
    with pytest.raises(ArithTypeError):
        eval_arith(expr("1 // 2.0"))
    with pytest.raises(ArithTypeError):
        eval_arith(expr("1 mod 0.5"))
    with pytest.raises(EvalError):
        eval_arith(expr("1 // 0"))


def test_eval_arith_operations():
    assert eval_arith(expr("2 + 3 * 4")) == 14
    assert eval_arith(expr("7 // 2")) == 3
    assert eval_arith(expr("7 mod 2")) == 1
    # // rounds toward negative infinity, and mod takes the divisor's sign.
    assert eval_arith(expr("-7 // 2")) == -4
    assert eval_arith(expr("-7 mod 2")) == 1
    assert eval_arith(expr("7 mod -2")) == -1
    assert eval_arith(expr("-(3) + 1")) == -2
    assert eval_arith(expr("1 / 2")) == 0.5
    assert eval_arith(expr("1.5 * 2.0")) == 3.0


def test_eval_arith_shared_values_but_not_cycles():
    b = Bindings()
    x, y = fresh_var("X"), fresh_var("Y")
    b.bind(y, expr("1 + 2"))
    b.bind(x, Compound("*", (y, y)))
    assert eval_arith(Compound("-", (x, y))) == 6
    u, v = fresh_var("U"), fresh_var("V")
    b.bind(u, Compound("*", (v, Num(2))))
    b.bind(v, Compound("+", (u, Num(1))))  # U and V hold each other
    for term in (u, Compound("-", (Num(0), v))):
        with pytest.raises(EvalError, match="cyclic"):
            eval_arith(term)


# Random expression trees, evaluated by eval_arith and by a plain-Python
# reference.  A tree is ("num", value), ("atom", name), ("var", None) for
# an unbound variable, ("var", tree) for one bound to ``tree``,
# ("neg", tree) or (op, left, right).

_OPS = ("+", "-", "*", "/", "//", "mod")
_NUMBERS = st.one_of(
    st.integers(-20, 20),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 0.5, 10**400, -(10**400), 1.0e308, -1.0e308]),
).map(lambda value: ("num", value))
_OPERANDS = st.one_of(_NUMBERS, _NUMBERS.map(lambda num: ("var", num)))
_LEAVES = st.one_of(
    _NUMBERS,
    st.just(("var", None)),
    st.sampled_from(["a", "[]"]).map(lambda name: ("atom", name)),
)
_TREES = st.one_of(
    st.tuples(st.sampled_from(_OPS), _OPERANDS, _OPERANDS),  # depth 1
    st.recursive(
        _LEAVES,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(_OPS), sub, sub),
            sub.map(lambda tree: ("neg", tree)),
            sub.map(lambda tree: ("var", tree)),
        ),
        max_leaves=12,
    ),
)


def _term(tree, b):
    kind = tree[0]
    if kind == "num":
        return Num(tree[1])
    if kind == "atom":
        return Const(tree[1])
    if kind == "var":
        var = fresh_var("X")
        if tree[1] is not None:
            b.bind(var, _term(tree[1], b))
        return var
    if kind == "neg":
        return Compound("-", (_term(tree[1], b),))
    return Compound(kind, (_term(tree[1], b), _term(tree[2], b)))


def _reference(tree):
    """Evaluate ``tree`` left to right, as ISO arithmetic with Python's
    ``//`` and ``%`` for ``//`` and ``mod``."""
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "atom":
        raise ArithTypeError(tree[1])
    if kind == "var":
        if tree[1] is None:
            raise InstantiationError("unbound")
        return _reference(tree[1])
    if kind == "neg":
        return -_reference(tree[1])
    a = _reference(tree[1])
    b = _reference(tree[2])
    if kind in ("//", "mod") and not (type(a) is int and type(b) is int):
        raise ArithTypeError(kind)
    try:
        if kind == "+":
            value = a + b
        elif kind == "-":
            value = a - b
        elif kind == "*":
            value = a * b
        elif kind == "/":
            value = a / b
        elif kind == "//":
            value = a // b
        else:
            value = a % b
    except (ZeroDivisionError, OverflowError) as exc:
        raise EvalError(str(exc)) from None
    if type(value) is float and not math.isfinite(value):
        raise EvalError("overflow")
    return value


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_TREES)
def test_eval_arith_agrees_with_a_reference_evaluator(tree):
    term = _term(tree, Bindings())
    try:
        want = _reference(tree)
    except EvalError as exc:
        with pytest.raises(EvalError) as raised:
            eval_arith(term)
        assert type(raised.value) is type(exc)
        return
    got = eval_arith(term)
    assert type(got) is type(want) and got == want


_COMPARISONS = {
    "<": operator.lt, ">": operator.gt, "=<": operator.le, ">=": operator.ge,
}


def _outcome(run):
    """What ``run()`` gives: ("value", result) or ("error", error class)."""
    try:
        return ("value", run())
    except Exception as exc:
        return ("error", type(exc))


def _other_class(value):
    """A number of the other class, equal to ``value`` where one is."""
    if type(value) is float:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        return 0.5


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(_COMPARISONS)),
    _TREES,
    _TREES,
    st.sampled_from(["unbound", "same", "other class", "other", "atom"]),
    st.booleans(),
    st.integers(-2, 2),
)
def test_arithmetic_builtins_agree_with_the_reference(
    name, left, right, lhs, through_var, hb_offset
):
    b = Bindings()
    ctx = BuiltinContext(b, IoPorts.scripted([]))
    args = (_term(left, b), _term(right, b))
    mark = len(b)
    compare = _COMPARISONS[name]
    want = _outcome(lambda: compare(_reference(left), _reference(right)))
    assert _outcome(lambda: BUILTINS[(name, 2)].fn(ctx, args)) == want
    assert len(b) == mark  # a comparison binds nothing

    # X is Right, for each kind of left side X.
    value = _outcome(lambda: _reference(right))
    x = fresh_var("X")
    if lhs == "unbound":
        target = x
    else:
        if lhs == "atom" or value[0] == "error":
            target = Const("a")
        else:
            number = value[1]
            if lhs == "other class":
                number = _other_class(number)
            elif lhs == "other":
                number = number + 1
            target = Num(number)
        if through_var:
            b.bind(x, target)
        else:
            x = target
    b.hb = hb_offset + (x.id if type(x) is Var else 0)
    mark = len(b)
    got = _outcome(lambda: BUILTINS[("is", 2)].fn(ctx, (x, args[1])))
    if value[0] == "error":
        assert got == value
    elif lhs == "unbound":
        assert got == ("value", True)
        assert type(x.ref) is Num
        assert type(x.ref.value) is type(value[1]) and x.ref.value == value[1]
    else:
        same = (
            type(target) is Num
            and type(target.value) is type(value[1])
            and target.value == value[1]
        )
        assert got == ("value", same)
    trailed = lhs == "unbound" and value[0] == "value" and x.id < b.hb
    assert b[mark:] == ([x] if trailed else [])


def test_eval_arith_overflow_is_an_error():
    big = "1" + "0" * 400
    for text in (big + " / 1", big + " * 1.0", "1.0e308 * 10", "-(1.0e308) - 1.0e308"):
        with pytest.raises(EvalError, match="overflow"):
            eval_arith(expr(text))
    assert eval_arith(expr(big + " * 10")) == 10 ** 401  # integers are exact


def test_comparisons():
    sols, _ = collect("p.", "1 < 2.")
    assert sols == ["true"]
    sols, _ = collect("p.", "3 >= 9.")
    assert sols == []
    sols, _ = collect("p.", "2 =< 2, 3 > 1.")
    assert sols == ["true"]


def test_comparison_instantiation_error():
    program = parse_program("p.")
    result = Engine(program).run_query("X < 2.")
    assert result.outcome == "errored"
    assert isinstance(result.error, InstantiationError)


def test_comparisons_never_bind():
    b = Bindings()
    ctx = BuiltinContext(b, IoPorts.scripted([]))
    before_trail = list(b)
    assert BUILTINS[("<", 2)].fn(ctx, (Num(1), Num(2)))
    assert not BUILTINS[(">", 2)].fn(ctx, (Num(1), Num(2)))
    assert b == before_trail


def test_is_binds_result():
    sols, _ = collect("p.", "X is 2 + 3.")
    assert sols == ["X = 5"]
    sols, _ = collect("p.", "5 is 2 + 3.")
    assert sols == ["true"]
    sols, _ = collect("p.", "4 is 2 + 3.")
    assert sols == []


def test_builtins_are_looked_up_at_call_time(monkeypatch):
    # mupbench counts builtin calls by swapping wrappers into BUILTINS, so
    # both the flat guard and a plain call must find each entry there.
    calls = {"=<": 0, "is": 0}
    for name in calls:
        entry = BUILTINS[(name, 2)]

        def counting(ctx, args, name=name, fn=entry.fn):
            calls[name] += 1
            return fn(ctx, args)

        counted = dataclasses.replace(entry, fn=counting)
        monkeypatch.setitem(BUILTINS, (name, 2), counted)
    sols, _ = collect("c(N) :- (N =< 0) # (M is N-1, c(M)).", "c(3).")
    assert sols == ["true"]
    assert calls == {"=<": 4, "is": 3}


def test_read_builtin_scripted():
    io = IoPorts.scripted(["7."])
    program = parse_program("p.")
    engine = Engine(program, io=io)
    result = engine.run_query("read(X).")
    assert [s.render() for s in result.solutions] == ["X = 7"]


def test_read_end_of_input():
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p."), io=io)
    result = engine.run_query("read(X).")
    assert [s.render() for s in result.solutions] == ["X = end_of_file"]


def test_read_unification_failure():
    io = IoPorts.scripted(["banana."])
    engine = Engine(parse_program("p."), io=io)
    result = engine.run_query("read(apple).")
    assert result.solutions == []


def test_write_unquoted_and_once():
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p."), io=io)
    result = engine.run_query("write('prime').")
    assert io.captured() == "prime"
    assert len(result.solutions) == 1


def test_read_reads_back_what_write_wrote():
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p."), io=io)
    engine.run_query("write(f(a = b, -(1), 2 - (3 - 4), (x < y) = z)).")
    written = io.captured()
    assert written == "f(a = b, -(1), 2 - (3 - 4), (x < y) = z)"
    engine = Engine(parse_program("p."), io=IoPorts.scripted([written + "."]))
    result = engine.run_query("read(X).")
    assert [s.render() for s in result.solutions] == ["X = " + written]


def test_read_reads_back_what_writeq_wrote():
    term = "f('two words', ','(c, d), 'A', [a | 'B'], 'don''t', -(1))"
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p."), io=io)
    engine.run_query("writeq(%s)." % term)
    written = io.captured()
    assert written == "f('two words', ','(c, d), 'A', [a|'B'], 'don\\'t', -(1))"
    engine = Engine(parse_program("p."), io=IoPorts.scripted([written + "."]))
    result = engine.run_query("read(X), X = %s." % term)
    assert [s.render() for s in result.solutions] == ["X = " + written]
    # write/1 prints atoms bare, so the same term does not read back.
    io = IoPorts.scripted([])
    Engine(parse_program("p."), io=io).run_query("write(%s)." % term)
    assert io.captured() == "f(two words, ,(c, d), A, [a|B], don't, -(1))"


def test_write_not_undone_on_backtracking():
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p(a). p(b)."), io=io)
    result = engine.run_query("p(X), write(X), nl.")
    assert len(result.solutions) == 2
    assert io.captured() == "a\nb\n"


def test_write_then_fail_keeps_output():
    io = IoPorts.scripted([])
    engine = Engine(parse_program("p."), io=io)
    result = engine.run_query("write(hello), fail.")
    assert result.solutions == []
    assert io.captured() == "hello"


@pytest.mark.parametrize(
    "key", sorted(BUILTINS) + sorted(_CONTROL), ids=lambda key: "%s/%d" % key
)
def test_no_program_defines_a_builtin_or_control_key(key):
    # The engine looks a call up in the program's predicates before
    # BUILTINS and handles the connectives and cut itself, so it relies on
    # no program defining any of these.
    name, arity = key
    args = tuple(fresh_var("A") for _ in range(arity))
    head = Compound(name, args) if arity else Const(name)
    with pytest.raises(LoadError):
        Program([Clause(head, TRUE)])


def test_rprime_program(rprime_program):
    for line, expected in (("7.", "prime"), ("9.", "composite")):
        io = IoPorts.scripted([line])
        engine = Engine(rprime_program, io=io)
        result = engine.run_query("rprime.")
        assert len(result.solutions) == 1
        assert io.captured() == expected


def test_rprime_no_double_print_under_enumeration(rprime_program):
    # Committed choice leaves no alternative to re-print through.
    io = IoPorts.scripted(["7."])
    engine = Engine(rprime_program, io=io)
    sols = list(engine.solve(parse_query("rprime.").goal))
    assert len(sols) == 1
    assert io.captured() == "prime"
