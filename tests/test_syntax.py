import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mup.engine import Engine
from mup.errors import LoadError, MupError, MupSyntaxError
from mup.syntax import (
    _INFIX,
    _Reader,
    CUT,
    TRUE,
    Clause,
    Program,
    format_program,
    indicator,
    parse_program,
    parse_query,
    parse_term,
    pretty,
    pretty_clause,
    pretty_goal,
    tokenize,
)
from mup.terms import Compound, Const, Num, fresh_var

from helpers import AstGen, clause_equal, term_equal


def test_parse_max_clause_shape():
    program = parse_program("max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y).")
    clause = program.clauses[0]
    assert indicator(clause.head) == ("max", 3)
    body = clause.body
    assert body.functor == "#"
    assert body.args[0].functor == ","
    assert type(body.args[0].args[0]) is Compound
    assert body.args[0].args[0].functor == ">="
    assert body.args[0].args[1].functor == "="
    assert type(body.args[1].args[0]) is Compound
    assert body.args[1].args[0].functor == "<"


def test_parse_unit_clause():
    program = parse_program("p.")
    clause = program.clauses[0]
    assert indicator(clause.head) == ("p", 0)
    assert clause.body is TRUE


def test_parse_member_choice_clause():
    program = parse_program("member(X,[Y|L]) :- (Y = X) # member(X,L).")
    body = program.clauses[0].body
    assert body.functor == "#"
    assert body.args[0].functor == "="
    assert type(body.args[1]) is Compound
    assert body.args[1].functor == "member"


def test_query_answer_variables():
    query = parse_query("max(3,9,M).")
    assert [v.name for v in query.answer_vars] == ["M"]
    assert type(query.goal) is Compound

    query = parse_query("X = a.")
    assert query.goal.functor == "="
    assert [v.name for v in query.answer_vars] == ["X"]

    query = parse_query("son(tom,Y).")
    assert type(query.goal) is Compound
    assert [v.name for v in query.answer_vars] == ["Y"]


def test_anonymous_vars_not_answers_and_distinct():
    query = parse_query("pair(_, _).")
    assert query.answer_vars == []
    a, b = query.goal.args
    assert a.id != b.id


def test_precedence_conj_tighter_than_choice():
    query = parse_query("a, b # c, d.")
    goal = query.goal
    assert goal.functor == "#"
    assert goal.args[0].functor == ","
    assert goal.args[1].functor == ","
    assert goal.args[0].args[0].name == "a"
    assert goal.args[1].args[1].name == "d"


def test_choice_and_or_right_assoc():
    goal = parse_query("a # b # c.").goal
    assert goal.functor == "#" and goal.args[1].functor == "#"
    goal = parse_query("a ; b ; c.").goal
    assert goal.functor == ";" and goal.args[1].functor == ";"


def test_mixed_choice_or_needs_parens():
    with pytest.raises(MupSyntaxError, match="parenthes"):
        parse_query("a # b ; c.")
    goal = parse_query("(a # b) ; c.").goal
    assert goal.functor == ";" and goal.args[0].functor == "#"


def test_cut_rejected_with_hint():
    with pytest.raises(MupSyntaxError, match="#"):
        parse_program("f(X,0) :- X < 2, !.")


def test_prolog_dialect_accepts_cut_and_soft_ifte():
    program = parse_program("f(X,0) :- X < 2, !.", dialect="prolog")
    body = program.clauses[0].body
    assert body.args[1] is CUT
    program = parse_program(
        "c(X) :- ((X = a) *-> (true) ; (X = b)).", dialect="prolog"
    )
    body = program.clauses[0].body
    assert body.functor == ";" and body.args[0].functor == "*->"
    with pytest.raises(MupSyntaxError):
        parse_program("p :- a # b.", dialect="prolog")


def test_soft_if_then_else_functor_is_no_call_in_the_choice_dialect():
    with pytest.raises(MupSyntaxError, match="goal"):
        parse_query("'*->'(a, b).")
    with pytest.raises(MupSyntaxError, match="goal"):
        parse_program("p :- '*->'(a, b).")
    with pytest.raises(MupSyntaxError, match="operator"):
        parse_program("'*->'(a, b).")
    with pytest.raises(MupSyntaxError, match="operator"):
        parse_program("'*->'(a, b) :- true.")


def test_lists_and_quoted_atoms():
    term = parse_term("[a, 'two words', 3 | T].")
    assert term.functor == "."
    assert pretty(term) == "[a, 'two words', 3|T]"
    assert parse_term("[].") == Const("[]")
    assert parse_term("'it\\'s'.") == Const("it's")


def test_numbers():
    assert parse_term("42.") == Num(42)
    assert parse_term("3.25.") == Num(3.25)
    assert parse_term("1e-05.") == Num(1e-05)
    assert parse_term("-7.") == Num(-7)
    goal = parse_query("X is 2 + 3 * 4.").goal
    expr = goal.args[1]
    assert expr.functor == "+"
    assert expr.args[1].functor == "*"
    # Only ASCII digits make a number; str.isdigit() also takes these.
    for text, char in (("².", "²"), ("X = ².", "²"), ("f(٣).", "٣")):
        with pytest.raises(MupSyntaxError, match="unexpected character '%s'" % char):
            parse_term(text)


def test_comments_and_whitespace():
    program = parse_program(
        """
        % a fact
        p(a).  % trailing comment
        p(b).
        """
    )
    assert len(program.clauses) == 2


def test_syntax_errors_carry_position():
    with pytest.raises(MupSyntaxError) as info:
        parse_program("p :- q r.")
    assert info.value.line == 1
    assert info.value.column is not None
    with pytest.raises(MupSyntaxError):
        parse_program("p :- .")
    with pytest.raises(MupSyntaxError, match="variable is not a goal"):
        parse_program("p :- X.")


def test_deep_nesting_is_a_syntax_error_and_prints_back():
    # read/1 parses with parse_term; the CLI cases are in test_cli.py.
    text = "f(" * 5000 + "a" + ")" * 5000
    with pytest.raises(MupSyntaxError, match="nested too deeply") as info:
        parse_term(text + ".")
    assert info.value.line == 1
    term = Const("a")
    for _ in range(5000):
        term = Compound("f", (term,))
    assert pretty(term) == text


def test_unterminated_quoted_atom():
    with pytest.raises(MupSyntaxError, match="unterminated"):
        parse_program("p('oops.")


# Text for the lexer's pinned digest: every token kind, and the characters
# at its edges.  "²", "٣" and "Ⅷ" are \w but start no word, "ǅ" is a
# title-case letter, and NBSP, U+2028 and form feed are spaces but not
# newlines.  The pieces in _LEX_EDGES each stop the lexer.
_LEX_PIECES = (
    "a", "foo", "X", "_", "_x", "Ab", "is", "mod", "é", "ǅ", "0", "7", "12",
    ".5", "e", "E", "e+", "e-", "1.5e3", "(", ")", "[", "]", ",", "|", ".",
    "#", ";", "*->", ":-", ">=", "=<", "//", "=", "<", ">", "+", "-", "*",
    "/", "!", "'", "''", "'a'", "'!'", "\\n", "\\'", "%", " ", "\n", "\t",
    "\x0c", "\xa0", "\u2028",
)
_LEX_EDGES = ("²", "٣", "Ⅷ", "\\", "\\q", "\"", "@", "1e400", "9" * 4301)


def _lex_record(text):
    """The tokens of ``text`` up to ``eof``, or its lexical error."""
    out = []
    try:
        for tok in tokenize(text):
            out.append((tok.kind, repr(tok.value), tok.line, tok.col))
            if tok.kind == "eof":
                return repr(out)
    except MupSyntaxError as err:
        return "error: %s" % err


def lexer_digest(count, seed=0):
    rng = random.Random(seed)
    sha = hashlib.sha256()
    for _ in range(count):
        text = "".join(rng.choice(_LEX_EDGES if rng.random() < 0.03 else _LEX_PIECES)
                       for _ in range(rng.randint(0, 25)))
        sha.update(_lex_record(text).encode("utf-8") + b"\0")
    return sha.hexdigest()


def test_lexer_tokens_and_errors_are_pinned():
    # Each text's tokens (kind, value, line, column) or its lexical error
    # may not drift.  The digest was taken from the hand-written scanner
    # that the one-pattern lexer replaced.
    assert lexer_digest(20000) == (
        "ed96b62b7b24678297a56b163833bb0af49532983d4668354499e4a38adcceb8")


def test_first_error_in_the_text_is_reported():
    # The reader meets the grammar error before the lexer reaches the
    # unterminated atom further on.
    with pytest.raises(MupSyntaxError, match="expected a term, got '.'") as info:
        parse_program("p :- . q('abc")
    assert (info.value.line, info.value.column) == (1, 6)
    with pytest.raises(MupSyntaxError, match="unterminated") as info:
        parse_program("p :- q.\nr('abc")
    assert (info.value.line, info.value.column) == (2, 3)


def test_doubled_quotes_in_quoted_atoms():
    assert parse_term("'a'''.") == Const("a'")
    assert parse_term("'''' = 'it''s'.").args == (Const("'"), Const("it's"))
    # A quoted atom does not end just before a quote.
    with pytest.raises(MupSyntaxError, match="unterminated"):
        parse_term("';''[.")


def test_parsing_peaks_near_what_the_program_keeps():
    # The reader holds one token, not the program's token list.
    text = "".join("f(%d, v%d).\n" % (k, k % 100) for k in range(10000))
    parse_program(text[:1000])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program = parse_program(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(program) == 10000
    assert peak - base <= 1.5 * (kept - base)


def test_a_long_quoted_atom_reads_in_memory_near_its_length():
    # The regex engine keeps state per repetition of a group; the quoted
    # atom's group repeats per escape, not per character.
    text = "'%s'." % ("a" * 200000)
    tracemalloc.start()
    try:
        term = parse_term(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert term == Const("a" * 200000)
    assert peak <= 4 * len(text)


def test_quoted_cut_is_no_goal_in_the_choice_dialect():
    for text in ("p :- '!'.", "p :- q, ('!' # r)."):
        with pytest.raises(MupSyntaxError, match="cut is not part"):
            parse_program(text)
    with pytest.raises(MupSyntaxError, match="cut is not part"):
        parse_query("'!'.")
    assert parse_query("X = '!'.").goal.args[1] == Const("!")  # data reads
    body = parse_program("p :- q, '!'.", dialect="prolog").clauses[0].body
    assert body.args[1] is CUT
    assert parse_query("'!'.", dialect="prolog").goal is CUT


def test_a_cut_only_stands_as_a_goal_in_the_prolog_dialect():
    # ISO Prolog's reading: '!' is the cut where it stands as a goal and
    # the atom '!' everywhere else, in either dialect.
    clause = parse_program("p(!, X) :- X = '!', (! ; q(!)).", dialect="prolog").clauses[0]
    assert clause.head.args[0] is Const("!")
    unify, disjunction = clause.body.args
    assert unify.args[1] is Const("!")
    assert disjunction.args[0] is CUT and disjunction.args[1].args[0] is Const("!")
    assert pretty_clause(clause) == "p('!', X) :- X = '!', (! ; q('!'))."
    assert parse_query("X = !.").goal.args[1] is Const("!")
    with pytest.raises(MupSyntaxError, match="cut is not part"):
        parse_program("p :- q, !.")


def test_a_goal_without_a_cut_is_kept_as_read():
    text = "p :- a, (b ; c *-> d ; e), f."
    reader = _Reader(text, "prolog")
    body = reader.sentence().args[1]
    assert reader.goal(body) is body


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(), st.text())
def test_one_atom_per_name(a, b):
    assert (Const(a) is Const(b)) == (a == b)
    for name in (a, b):
        assert parse_term(pretty(Const(name)) + ".") is Const(name)
    assert Const("!") is not CUT


def test_a_programmatic_true_goal_runs_as_a_parsed_one():
    x = fresh_var("X")
    built = Program([
        Clause(Compound("p", (Const("a"),)), Const("true")),
        Clause(Compound("p", (Const("b"),)), Compound(",", (Const("true"), Const("true")))),
    ])
    built_goal = Compound(",", (Compound("p", (x,)), Const("true")))
    parsed = parse_program("p(a) :- true. p(b) :- true, true.")
    query = parse_query("p(X), true.")
    runs = []
    for program, goal, answer_vars in ((built, built_goal, [x]),
                                       (parsed, query.goal, query.answer_vars)):
        events = []
        engine = Engine(program, trace=events.append)
        answers = [s.render() for s in engine.solve(goal, answer_vars)]
        runs.append((answers, [(e.kind, e.depth, e.payload) for e in events]))
    assert runs[0] == runs[1]
    assert runs[0][0] == ["X = a", "X = b"]


def test_builtin_redefinition_rejected_at_load():
    with pytest.raises(LoadError, match="built-in"):
        parse_program("is(X, Y) :- X = Y.")
    with pytest.raises(LoadError):
        parse_program("write(_).")


@pytest.mark.parametrize("text", ["mod(a, b).", "is(a)."])
def test_a_head_no_goal_could_call_is_rejected(text):
    # Only is/2 passes the operator check, to fail as a built-in.
    with pytest.raises(MupSyntaxError, match="clause head cannot be an operator"):
        parse_program(text)
    with pytest.raises(MupSyntaxError, match="cannot be called as a goal"):
        parse_query(text)


def test_program_index_source_order():
    program = parse_program("p(a). q(x). p(b). p(c).")
    names = [pretty(c.head) for c in program.clauses_for("p", 1)]
    assert names == ["p(a)", "p(b)", "p(c)"]


def test_pretty_round_trip_examples():
    program = parse_program("f(X,0) :- X < 2.")
    text = pretty_clause(program.clauses[0])
    reparsed = parse_program(text).clauses[0]
    assert clause_equal(program.clauses[0], reparsed)

    assert pretty(parse_term("[a].")) == "[a]"
    assert pretty_goal(parse_query("(p # q).").goal) == "(p # q)"

    # Escapes print the way the tokenizer reads them.
    for name, text in [("a\nb", "'a\\nb'"), ("t\tab", "'t\\tab'"),
                       ("it's \\", "'it\\'s \\\\'")]:
        assert pretty(Const(name)) == text
        assert parse_term(text + ".") == Const(name)


def test_pretty_round_trip_generated_terms():
    gen = AstGen(101)
    for _ in range(300):
        gen.reset_scope()
        term = gen.term(4)
        text = pretty(term)
        back = parse_term(text + " .")
        assert _shape_eq(term, back), text


def _shape_eq(a, b, varmap=None):
    from helpers import term_equal

    return term_equal(a, b, varmap if varmap is not None else {})


def test_pretty_round_trip_generated_clauses():
    gen = AstGen(55)
    for _ in range(300):
        clause = gen.clause()
        text = pretty_clause(clause)
        back = parse_program(text).clauses[0]
        assert clause_equal(clause, back), text


def test_pretty_round_trip_generated_goals():
    gen = AstGen(77)
    for _ in range(300):
        gen.reset_scope()
        goal = gen.goal(3)
        text = pretty_goal(goal) + "."
        back = parse_query(text).goal
        assert term_equal(goal, back, {}), text


def test_operators_inside_terms():
    assert parse_term("f(a = b).") == Compound("f", (Compound("=", (Const("a"), Const("b"))),))
    goal = parse_query("X = (a, b), Y = [(p :- q), 1 < 2].").goal
    assert goal.args[0].args[1] == Compound(",", (Const("a"), Const("b")))
    assert pretty_goal(goal) == "X = ','(a, b), Y = [':-'(p, q), 1 < 2]"
    nested = Compound("=", (Compound("=", (Const("a"), Const("b"))), Const("c")))
    assert pretty(nested) == "(a = b) = c"
    assert pretty_goal(parse_query("'='('='(a, b), c).").goal) == "(a = b) = c"
    with pytest.raises(MupSyntaxError):
        parse_term("a = b = c.")  # = does not associate
    assert parse_term("- - - a.") == Compound("-", (Compound("-", (Compound("-", (Const("a"),)),)),))
    assert parse_term("- - 3.") == Compound("-", (Num(-3),))


def test_functional_notation_goals():
    goal = parse_query("'='(X, a), '<'(1, 2), is(Y, 3), ','(p, q).").goal
    assert goal.args[0].functor == "="
    assert goal.args[1].args[0].functor == "<"
    assert goal.args[1].args[1].args[0].functor == "is"
    assert goal.args[1].args[1].args[1].functor == ","
    for text in ("'+'(a, b).", "'.'(a, b).", "[a].", "- p.", "X.", "3."):
        with pytest.raises(MupSyntaxError, match="goal"):
            parse_query(text)
    # The error names the term, shortened.
    with pytest.raises(MupSyntaxError, match=r"goal: 1 \+ 1 .*\.\.\. \(line 1, column 1\)"):
        parse_query("+".join(["1"] * 5000) + ".")


# Every operator functor, plus the list constructors, in every argument
# position; leaves include atoms that are operators or need quoting.
_OP_FUNCTORS = sorted(_INFIX) + ["|", ".", "f"]
_OP_ATOMS = ("a", "mod", "is", "true", "[]", "-", ",", "|", "!", "'", "two words",
             "#", ";", "*->")
_CONNECTIVES = (",", "#", ";", "*->")


def _op_term(rng, depth, scope, goal=False):
    """A random term over the operators; with ``goal``, a connective or call
    is likelier at the top."""
    r = rng.random()
    if goal and depth and r < 0.5:
        functor = rng.choice(_CONNECTIVES)
        return Compound(functor, tuple(_op_term(rng, depth - 1, scope, True) for _ in "ab"))
    if goal and r < 0.6:
        return Const(rng.choice(_OP_ATOMS))
    if goal and r < 0.7:
        return Compound("f", (_op_term(rng, max(depth - 1, 0), scope),))
    if depth == 0 or r < 0.3:
        k = rng.random()
        if k < 0.3:
            name = rng.choice("XYZ")
            if name not in scope:
                scope[name] = fresh_var(name)
            return scope[name]
        if k < 0.6:
            return Const(rng.choice(_OP_ATOMS))
        return Num(rng.choice((-3, -1, 0, 2, -1.5, 0.5)))
    if r < 0.4:
        return Compound("-", (_op_term(rng, depth - 1, scope),))
    functor = rng.choice(_OP_FUNCTORS)
    arity = rng.choice((1, 2, 2, 2, 2, 3))
    return Compound(functor, tuple(_op_term(rng, depth - 1, scope) for _ in range(arity)))


def test_pretty_round_trip_operator_terms():
    rng = random.Random(2024)
    for _ in range(20000):
        term = _op_term(rng, 4, {})
        text = pretty(term)
        assert term_equal(term, parse_term(text + " ."), {}), text


_SOUP = ("a", "b", "f", "p", "true", "fail", "is", "mod", "X", "Y", "_", "1",
         "0", "2.5", "'q a'", "'true'", "'!'", "'='", "'-'", "','", "'#'",
         "'*->'", "';'", "'|'", "'.'", "'[]'", "[]", "(", ")", "[", "]", ",", "|",
         "#", ";", "*->", ":-", "=", "<", ">=", "=<", "+", "-", "*", "//", "!", ".")


def _soup(rng):
    tokens = rng.choices(_SOUP, k=rng.randint(1, 12)) + ["."]
    return " ".join(tokens) if rng.random() < 0.8 else "".join(tokens)


def test_token_soup_raises_or_reads_back():
    """Whatever the reader accepts prints back to text it reads the same."""
    rng = random.Random(7)
    for _ in range(3000):
        text = _soup(rng)
        for dialect in ("choice", "prolog"):
            try:
                program = parse_program(text, dialect)
            except MupError:
                pass
            else:
                back = parse_program(format_program(program), dialect)
                assert len(back) == len(program), text
                assert all(map(clause_equal, program.clauses, back.clauses)), text
            try:
                query = parse_query(text, dialect)
            except MupError:
                pass
            else:
                back = parse_query(pretty_goal(query.goal) + ".", dialect)
                assert term_equal(query.goal, back.goal, {}), text
        try:
            term = parse_term(text)
        except MupError:
            continue
        assert term_equal(term, parse_term(pretty(term) + " ."), {}), text


def _cut_goals(term):
    """``term`` with each ``!`` that stands as a goal replaced by ``CUT``,
    as the prolog dialect reads a goal."""
    if term is Const("!"):
        return CUT
    if (type(term) is not Compound or term.functor not in (",", ";")
            or len(term.args) != 2):
        return term
    left, right = term.args
    if (term.functor == ";" and type(left) is Compound and left.functor == "*->"
            and len(left.args) == 2):
        left = Compound("*->", tuple(map(_cut_goals, left.args)))
    else:
        left = _cut_goals(left)
    return Compound(term.functor, (left, _cut_goals(right)))


def _goal_is_the_term_read(text, dialect):
    """Whether ``text`` reads as a query, whose goal is then the very term
    that the dialect's reader reads for it, with its cuts in the prolog
    dialect."""
    try:
        goal = parse_query(text, dialect).goal
    except MupError:
        return False
    term = _Reader(text, dialect).sentence(last=True)
    if dialect == "prolog":
        term = _cut_goals(term)
    assert term_equal(goal, term, {}), text
    return True


def test_a_goal_is_the_term_read():
    rng = random.Random(11)
    read = 0
    for _ in range(3000):
        text = _soup(rng)
        for dialect in ("choice", "prolog"):
            read += _goal_is_the_term_read(text, dialect)
    for _ in range(3000):
        goal = _op_term(rng, 3, {}, goal=True)
        for text in (pretty(goal) + ".", pretty_goal(goal) + "."):
            for dialect in ("choice", "prolog"):
                read += _goal_is_the_term_read(text, dialect)
    assert read > 1000


def test_subst_goal_replaces_only_mapped_variables():
    from mup.syntax import subst_goal
    from mup.terms import fresh_var

    goal = parse_query("q(X), r(Y, f(Y)), s(a).").goal
    x, y = goal.args[0].args[0], goal.args[1].args[0].args[0]
    replacement = fresh_var("W")
    out = subst_goal(goal, {x.id: replacement})
    assert out.args[0].args[0] is replacement
    assert out.args[1] is goal.args[1]  # nothing mapped below: shared
    out = subst_goal(goal, {y.id: Const("b")})
    assert pretty_goal(out) == "q(X), r(b, f(b)), s(a)"
    assert out.args[0] is goal.args[0] and out.args[1].args[1] is goal.args[1].args[1]
