"""Concrete syntax and ASTs for programs, clauses and goals.

Grammar summary (``.mpl`` files, UTF-8):

* clauses end in ``.``; ``%`` starts a line comment
* ``H :- B.`` is a rule, ``H.`` a unit clause
* goal connectives, loosest to tightest: ``#`` (committed choice) and
  ``;`` (classical disjunction) on one tier, then ``,`` (conjunction);
  mixing ``#`` and ``;`` without parentheses is rejected
* ``=`` is term equality; ``<  >  >=  =<  is`` are built-in calls
* lists ``[a, b | T]``, variables start uppercase or ``_``, atoms start
  lowercase or are ``'quoted'``; integers and floats are distinct

Two dialects share the parser.  The default ``choice`` dialect accepts
``#`` and rejects ``!``.  The ``prolog`` dialect (used to re-check
transpiler output) accepts ``!`` and ``*->`` and rejects ``#``.
"""

from math import isinf
from operator import is_not

from mup import builtins as _builtins
from mup.errors import LoadError, MupSyntaxError
from mup.terms import CONS, EMPTY_LIST, Compound, Const, Num, Var, fresh_var, mk_list

# ---------------------------------------------------------------------------
# Goal / clause / program ASTs


class Goal:
    __slots__ = ()


class TrueGoal(Goal):
    __slots__ = ()

    def __repr__(self):
        return "TrueGoal()"


TRUE = TrueGoal()


class Call(Goal):
    """Atomic goal: a Const or Compound term to be proved."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term

    def __repr__(self):
        return "Call(%r)" % (self.term,)


class Eq(Goal):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return "Eq(%r, %r)" % (self.left, self.right)


class Conj(Goal):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return "Conj(%r, %r)" % (self.left, self.right)


class Choice(Goal):
    """Committed choice between two goals (``G0 # G1``)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return "Choice(%r, %r)" % (self.left, self.right)


class ClassicalOr(Goal):
    """Backtracking disjunction (``G0 ; G1``), kept for contrast."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return "ClassicalOr(%r, %r)" % (self.left, self.right)


class Cut(Goal):
    """Prolog ``!``; only parsed in the ``prolog`` dialect."""

    __slots__ = ()

    def __repr__(self):
        return "Cut()"


class SoftIfThenElse(Goal):
    """``(C *-> T ; E)``; only parsed in the ``prolog`` dialect."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els):
        self.cond = cond
        self.then = then
        self.els = els

    def __repr__(self):
        return "SoftIfThenElse(%r, %r, %r)" % (self.cond, self.then, self.els)


class Clause:
    """``head :- body``; unit clauses carry TRUE as body.

    The clause is compiled the first time it is tried:
    ``mup.compiled.compile_clause`` sets ``code``, the clause's generated
    (head matcher, body builder) pair, which is None until then.
    """

    __slots__ = ("head", "body", "span", "code")

    def __init__(self, head, body=TRUE, span=None):
        self.head = head
        self.body = body
        self.span = span
        self.code = None

    def indicator(self):
        if type(self.head) is Compound:
            return (self.head.functor, len(self.head.args))
        return (self.head.name, 0)

    def __repr__(self):
        return "Clause(%r, %r)" % (self.head, self.body)


class Query:
    """A parsed query: the goal plus its answer variables in source order."""

    __slots__ = ("goal", "answer_vars")

    def __init__(self, goal, answer_vars):
        self.goal = goal
        self.answer_vars = list(answer_vars)


class Program:
    """Ordered clause store with a (name, arity) index.

    Clause order is source order; the engine tries candidates in that
    order.  ``predicates`` holds each predicate's clauses and
    first-argument index (see ``mup.compiled``), built in the same pass.
    """

    __slots__ = ("clauses", "predicates")

    def __init__(self, clauses):
        # mup.compiled imports the goal classes from this module.
        from mup.compiled import Predicate

        self.clauses = list(clauses)
        self.predicates = {}
        for clause in self.clauses:
            key = clause.indicator()
            pred = self.predicates.get(key)
            if pred is None:
                if key in _builtins.BUILTINS:
                    raise LoadError(
                        "cannot redefine built-in predicate %s/%d" % key
                    )
                pred = self.predicates[key] = Predicate()
            pred.add(clause)

    def clauses_for(self, name, arity):
        pred = self.predicates.get((name, arity))
        return None if pred is None else pred.clauses

    def __len__(self):
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = ("*->", ":-", ">=", "=<", "//", "(", ")", "[", "]", ",", "|", ".",
            "#", ";", "=", "<", ">", "+", "-", "*", "/", "!")

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'"}


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    line = 1
    linestart = 0

    def err(msg, at):
        raise MupSyntaxError(msg, line, at - linestart + 1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            linestart = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            is_float = False
            if i + 1 < n and text[i] == "." and text[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    is_float = True
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            word = text[start:i]
            try:
                value = float(word) if is_float else int(word)
            except ValueError:  # more digits than int() converts
                err("integer literal too long", start)
            if is_float and isinf(value):
                err("float literal out of range", start)
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, value, line, start - linestart + 1))
            continue
        if ch == "_" or ch.isalpha():
            while i < n and (text[i] == "_" or text[i].isalnum()):
                i += 1
            word = text[start:i]
            kind = "var" if (ch == "_" or ch.isupper()) else "atom"
            tokens.append(Token(kind, word, line, start - linestart + 1))
            continue
        if ch == "'":
            i += 1
            chars = []
            while True:
                if i >= n:
                    err("unterminated quoted atom", start)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        err("bad escape in quoted atom", i)
                    esc = text[i + 1]
                    if esc not in _ESCAPES:
                        err("bad escape \\%s in quoted atom" % esc, i)
                    chars.append(_ESCAPES[esc])
                    i += 2
                    continue
                if c == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        chars.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                if c == "\n":
                    err("newline in quoted atom", i)
                chars.append(c)
                i += 1
            tokens.append(Token("qatom", "".join(chars), line, start - linestart + 1))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("punct", sym, line, start - linestart + 1))
                i += len(sym)
                break
        else:
            err("unexpected character %r" % ch, i)
    tokens.append(Token("eof", None, line, n - linestart + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_RELOPS = ("=", "<", ">", ">=", "=<")
_OPERATOR_FUNCTORS = frozenset(
    ["=", "<", ">", ">=", "=<", "is", "+", "-", "*", "/", "//", "mod", ":-",
     "#", ";", ",", "|", "!", "."]
)


class _Parser:
    def __init__(self, tokens, dialect):
        if dialect not in ("choice", "prolog"):
            raise ValueError("unknown dialect %r" % (dialect,))
        self.tokens = tokens
        self.pos = 0
        self.dialect = dialect
        self.scope = {}
        self.var_order = []

    # -- token plumbing

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_punct(self, *values):
        tok = self.peek()
        return tok.kind == "punct" and tok.value in values

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            self.fail("expected %r" % value, tok)
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        got = "end of input" if tok.kind == "eof" else repr(tok.value)
        raise MupSyntaxError("%s, got %s" % (msg, got), tok.line, tok.col)

    # -- variables are scoped per clause / per query

    def begin_scope(self):
        self.scope = {}
        self.var_order = []

    def lookup_var(self, name):
        if name == "_":
            return fresh_var("_")
        var = self.scope.get(name)
        if var is None:
            var = fresh_var(name)
            self.scope[name] = var
            self.var_order.append(var)
        return var

    # -- terms

    def parse_term(self):
        return self.parse_additive()

    def parse_additive(self):
        term = self.parse_multiplicative()
        while self.at_punct("+", "-"):
            op = self.next().value
            rhs = self.parse_multiplicative()
            term = Compound(op, (term, rhs))
        return term

    def parse_multiplicative(self):
        term = self.parse_unary()
        while True:
            if self.at_punct("*", "/", "//"):
                op = self.next().value
            elif self.peek().kind == "atom" and self.peek().value == "mod":
                self.next()
                op = "mod"
            else:
                return term
            rhs = self.parse_unary()
            term = Compound(op, (term, rhs))

    def parse_unary(self):
        if self.at_punct("-"):
            tok = self.next()
            if self.peek().kind in ("int", "float"):
                return Num(-self.next().value)
            operand = self.parse_unary()
            return Compound("-", (operand,))
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind in ("int", "float"):
            self.next()
            return Num(tok.value)
        if tok.kind == "var":
            self.next()
            return self.lookup_var(tok.value)
        if tok.kind in ("atom", "qatom"):
            self.next()
            if self.at_punct("("):
                self.next()
                args = [self.parse_term()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect_punct(")")
                return Compound(tok.value, tuple(args))
            return Const(tok.value)
        if self.at_punct("["):
            return self.parse_list()
        if self.at_punct("("):
            self.next()
            term = self.parse_term()
            self.expect_punct(")")
            return term
        self.fail("expected a term", tok)

    def parse_list(self):
        self.expect_punct("[")
        if self.at_punct("]"):
            self.next()
            return Const(EMPTY_LIST)
        items = [self.parse_term()]
        while self.at_punct(","):
            self.next()
            items.append(self.parse_term())
        tail = None
        if self.at_punct("|"):
            self.next()
            tail = self.parse_term()
        self.expect_punct("]")
        return mk_list(items, tail)

    # -- goals

    def parse_goal(self):
        left = self.parse_conjunction()
        if self.at_punct("*->"):
            if self.dialect != "prolog":
                self.fail("'*->' is only available in the prolog dialect")
            self.next()
            then = self.parse_conjunction()
            if not self.at_punct(";"):
                self.fail("soft if-then-else needs an else: (C *-> T ; E)")
            self.next()
            els = self.parse_goal()
            return SoftIfThenElse(left, then, els)
        if not self.at_punct("#", ";"):
            return left
        op = self.peek().value
        if op == "#" and self.dialect == "prolog":
            self.fail("'#' is not available in the prolog dialect")
        parts = [left]
        while self.at_punct("#", ";"):
            tok = self.next()
            if tok.value != op:
                raise MupSyntaxError(
                    "mixing '#' and ';' needs parentheses", tok.line, tok.col
                )
            parts.append(self.parse_conjunction())
        node = ClassicalOr if op == ";" else Choice
        goal = parts[-1]
        for part in reversed(parts[:-1]):
            goal = node(part, goal)
        return goal

    def parse_conjunction(self):
        parts = [self.parse_simple_goal()]
        while self.at_punct(","):
            self.next()
            parts.append(self.parse_simple_goal())
        goal = parts[-1]
        for part in reversed(parts[:-1]):
            goal = Conj(part, goal)
        return goal

    def parse_simple_goal(self):
        tok = self.peek()
        if self.at_punct("("):
            # "(" is ambiguous here: it may open a parenthesized goal or a
            # parenthesized term, as in "(X + 1) * 2 = Y".  Try the goal
            # reading; fall back to the term reading on failure or when a
            # term-level operator follows the closing parenthesis.
            save = self.pos
            try:
                self.next()
                goal = self.parse_goal()
                self.expect_punct(")")
            except MupSyntaxError as goal_error:
                self.pos = save
                try:
                    return self._term_goal(tok)
                except MupSyntaxError as term_error:
                    raise self._further(goal_error, term_error) from None
            if self.at_punct("+", "-", "*", "/", "//", *_RELOPS) or (
                self.peek().kind == "atom" and self.peek().value in ("is", "mod")
            ):
                self.pos = save
                return self._term_goal(tok)
            return goal
        if self.at_punct("!"):
            if self.dialect != "prolog":
                self.fail("cut is not part of this language; use '#' instead")
            self.next()
            return Cut()
        if tok.kind == "atom" and tok.value == "true" and not self._call_ahead():
            self.next()
            return TRUE
        return self._term_goal(tok)

    def _term_goal(self, tok):
        term = self.parse_term()
        if self.at_punct(*_RELOPS):
            op = self.next().value
            rhs = self.parse_term()
            if op == "=":
                return Eq(term, rhs)
            return Call(Compound(op, (term, rhs)))
        if self.peek().kind == "atom" and self.peek().value == "is":
            self.next()
            rhs = self.parse_term()
            return Call(Compound("is", (term, rhs)))
        if type(term) is Var:
            self.fail("a variable is not a goal", tok)
        if type(term) is Num:
            self.fail("a number is not a goal", tok)
        if type(term) is Compound and term.functor in _OPERATOR_FUNCTORS:
            self.fail("this term cannot be called as a goal", tok)
        return Call(term)

    @staticmethod
    def _further(first, second):
        """The error that got further into the input (better diagnosis)."""
        a = (first.line or 0, first.column or 0)
        b = (second.line or 0, second.column or 0)
        return first if a >= b else second

    def _call_ahead(self):
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "punct" and nxt.value == "("

    # -- clauses and programs

    def parse_clause(self):
        self.begin_scope()
        tok = self.peek()
        head = self.parse_primary()
        if type(head) is Var or type(head) is Num:
            self.fail("clause head must be an atom or compound", tok)
        if (
            type(head) is Compound
            and head.functor in _OPERATOR_FUNCTORS
            and head.functor not in ("is", "mod")
        ):
            # Word operators fall through so that redefining a built-in
            # like is/2 surfaces as the load-time error it is.
            self.fail("clause head cannot be an operator", tok)
        body = TRUE
        if self.at_punct(":-"):
            self.next()
            body = self.parse_goal()
        self.expect_punct(".")
        return Clause(head, body, span=(tok.line, tok.col))

    def parse_program(self):
        clauses = []
        while self.peek().kind != "eof":
            clauses.append(self.parse_clause())
        return Program(clauses)

    def parse_query(self):
        self.begin_scope()
        goal = self.parse_goal()
        self.expect_punct(".")
        if self.peek().kind != "eof":
            self.fail("unexpected input after query")
        return Query(goal, self.var_order)

    def parse_single_term(self):
        self.begin_scope()
        term = self.parse_term()
        self.expect_punct(".")
        if self.peek().kind != "eof":
            self.fail("unexpected input after term")
        return term


def _parse(text, dialect, method):
    """Run one ``_Parser`` method over ``text``.

    The parser descends recursively, so input nested deeper than the host
    stack allows is reported as a syntax error at the token reached.
    """
    parser = _Parser(tokenize(text), dialect)
    try:
        return method(parser)
    except RecursionError:
        tok = parser.peek()
        raise MupSyntaxError("nested too deeply", tok.line, tok.col) from None


def parse_program(text, dialect="choice"):
    """Parse a full program (clauses terminated by ``.``)."""
    return _parse(text, dialect, _Parser.parse_program)


def parse_query(text, dialect="choice"):
    """Parse one goal terminated by ``.``; free variables become answers."""
    return _parse(text, dialect, _Parser.parse_query)


def parse_term(text):
    """Parse a single term terminated by ``.`` (used by read/1)."""
    return _parse(text, "choice", _Parser.parse_single_term)


# ---------------------------------------------------------------------------
# Pretty printer

_ATOM_BARE = frozenset("abcdefghijklmnopqrstuvwxyz")
_INFIX_PREC = {
    "=": 700, "<": 700, ">": 700, ">=": 700, "=<": 700, "is": 700,
    "+": 500, "-": 500,
    "*": 400, "/": 400, "//": 400, "mod": 400,
}


def _atom_text(name, quoted=True):
    if name == EMPTY_LIST:
        return name
    if name and name[0] in _ATOM_BARE and all(
        c == "_" or c.isalnum() for c in name
    ):
        return name
    if not quoted:
        return name
    escaped = (name.replace("\\", "\\\\").replace("'", "\\'")
               .replace("\n", "\\n").replace("\t", "\\t"))
    return "'%s'" % escaped


def pretty(term, quoted=True):
    """Render a term or a goal; the result reparses to an equal one.

    ``quoted=False`` drops atom quoting (the write/1 convention).
    Iterative, so terms and goals of any depth render in constant host
    stack.
    """
    out = []
    todo = [term]  # parts still to render, and the text (str) between them
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is str:
            out.append(t)
        elif tt is Var:
            out.append(t.name)
        elif tt is Const:
            out.append(_atom_text(t.name, quoted))
        elif tt is Num:
            out.append(repr(t.value))
        elif tt is Compound:
            todo.extend(reversed(_pieces(t, quoted)))
        elif tt is TrueGoal:
            out.append("true")
        else:
            todo.extend(reversed(_goal_pieces(t)))
    return "".join(out)


pretty_goal = pretty


def _pieces(term, quoted):
    """One compound's rendering: its text and its subterms, in order."""
    functor, args = term.functor, term.args
    if functor == CONS and len(args) == 2:
        pieces = ["["]
        while type(term) is Compound and term.functor == CONS and len(term.args) == 2:
            if len(pieces) > 1:
                pieces.append(", ")
            pieces.append(term.args[0])
            term = term.args[1]
        if not (type(term) is Const and term.name == EMPTY_LIST):
            pieces += ("|", term)
        pieces.append("]")
        return pieces
    if functor in _INFIX_PREC and len(args) == 2:
        prec = _INFIX_PREC[functor]
        return [
            *_wrap(args[0], prec, tight=False),
            " %s " % functor,
            *_wrap(args[1], prec, tight=True),
        ]
    if functor == "-" and len(args) == 1:
        if type(args[0]) is Num:
            # "-3" would reparse as a negative literal, not as negation.
            return ["-(", args[0], ")"]
        return ["-", *_wrap(args[0], 200, tight=True)]
    pieces = [_atom_text(functor, quoted) + "("]
    for i, arg in enumerate(args):
        if i:
            pieces.append(", ")
        pieces.append(arg)
    pieces.append(")")
    return pieces


def _wrap(arg, parent_prec, tight):
    if type(arg) is Compound and len(arg.args) == 2:
        prec = _INFIX_PREC.get(arg.functor)
        if prec is not None and (prec > parent_prec or (tight and prec == parent_prec)):
            return ("(", arg, ")")
    if type(arg) is Num and arg.value < 0:
        return ("(", arg, ")")
    return (arg,)


def _goal_pieces(goal):
    """One goal's rendering: its text and its parts, in order."""
    t = type(goal)
    if t is Call:
        return [goal.term]
    if t is Eq:
        return [goal.left, " = ", goal.right]
    if t is Conj:
        pieces = []
        while type(goal) is Conj:  # a right-nested chain prints flat
            left = goal.left
            pieces += ("(", left, "), ") if type(left) is Conj else (left, ", ")
            goal = goal.right
        pieces.append(goal)
        return pieces
    if t is Choice or t is ClassicalOr:
        left, right = [goal.left], [goal.right]
        if type(goal.left) in (Choice, ClassicalOr):
            left = ["(", goal.left, ")"]
        if type(goal.right) in (Choice, ClassicalOr) and type(goal.right) is not t:
            right = ["(", goal.right, ")"]
        return ["(", *left, " # " if t is Choice else " ; ", *right, ")"]
    if t is Cut:
        return ["!"]
    if t is SoftIfThenElse:
        return ["((", goal.cond, ") *-> (", goal.then, ") ; (", goal.els, "))"]
    raise TypeError("not a goal: %r" % (goal,))


def pretty_clause(clause):
    head = pretty(clause.head)
    if type(clause.body) is TrueGoal:
        return "%s." % head
    return "%s :- %s." % (head, pretty_goal(clause.body))


def format_program(program):
    return "\n".join(pretty_clause(c) for c in program.clauses) + "\n"


# ---------------------------------------------------------------------------
# Walks over goals and terms, shared by the engine, compiler and transpiler.
# Each is a loop over an explicit stack, so no goal or term is too deep.


def goal_parts(node):
    """A compound's arguments, or a goal's fields in constructor order."""
    if type(node) is Compound:
        return node.args
    return [getattr(node, field) for field in type(node).__slots__]


def free_goal_vars(goal):
    """Variables of ``goal`` in first-occurrence order."""
    seen = set()
    out = []
    stack = [goal]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Var:
            if node.id not in seen:
                seen.add(node.id)
                out.append(node)
        elif t is not Const and t is not Num:
            stack.extend(reversed(goal_parts(node)))
    return out


def rebuild(root, leaf, make):
    """``root``, a goal or a term, rebuilt bottom-up.

    Each variable becomes ``leaf(var)``.  A node whose parts all came back
    as they were is kept as it is (shared); any other becomes
    ``make(node, parts)``.
    """
    stack = []  # suspended parents: node, parts, iterator, built
    # The bottom frame stands for the caller: its one part is ``root``.
    node, parts = None, (root,)
    rest = iter(parts)
    built = []
    while True:
        for part in rest:
            pt = type(part)
            if pt is Var:
                built.append(leaf(part))
            elif pt is Const or pt is Num:
                built.append(part)
            else:
                stack.append((node, parts, rest, built))
                node, parts = part, goal_parts(part)
                rest = iter(parts)
                built = []
                break
        else:
            if not stack:
                return built[0]
            out = make(node, built) if any(map(is_not, built, parts)) else node
            node, parts, rest, built = stack.pop()
            built.append(out)


def subst_goal(root, mapping):
    """Replace variables by id according to ``mapping`` (a dict id->Term).

    ``root`` is a goal or a term; parts with nothing replaced are shared.
    """
    return rebuild(root, lambda var: mapping.get(var.id, var), _remake)


def _remake(node, parts):
    if type(node) is Compound:
        return Compound(node.functor, parts)
    return type(node)(*parts)
