"""Concrete syntax of programs, clauses and goals, and their printer.

``.mpl`` files are UTF-8; ``%`` starts a line comment.  Lists are
``[a, b | T]``, variables start uppercase or ``_``, atoms start lowercase or
are ``'quoted'``; integers and floats are distinct.  The lexer is one
pattern, ``_TOKEN``, with one alternative per token kind (a quoted atom's
body is then read a piece at a time); the reader pulls tokens from it as
it goes and holds one token of lookahead, so an error is reported where
the reader meets it.  One operator table, ``_INFIX``,
serves the reader and the printer (Prolog's op/3 types):

    1200 xfx  :-                   rule ``H :- B``
    1100 xfy  #  ;                 committed choice, disjunction (not mixed)
    1050 xfy  *->                  soft if-then-else, left of ``;``
    1000 xfy  ,                    conjunction
     700 xfx  =  <  >  >=  =<  is  unification and built-in calls
     500 yfx  +  -
     400 yfx  *  /  //  mod
     200 fy   -                    prefix; ``- 3`` is the number -3

A clause, a query and a read/1 term are each one term read at 1200 and
ended by ``.``; arguments and list elements are read at 999.  A clause is
split on ``:-``.  A goal (a clause body or a query) is the term read, as
in ISO Prolog: ``','(A, B)``, ``'#'(A, B)`` and ``';'(A, B)`` are its
connectives, ``(C *-> T ; E)`` is ``';'('*->'(C, T), E)``, and any other
atom or compound is a call (``X = Y`` among them).  The reader checks
that a goal can run.  Every atom is read as ``Const(name)``, the one atom
of its name, so ``true`` is ``TRUE``; ``!`` and ``'!'`` are the atom
``'!'``.  The ``prolog`` dialect (used to re-check transpiler output) has
``!`` and ``*->`` and no ``#``: where ``!`` stands as a goal, as in ISO
Prolog, the reader puts ``CUT`` in its place, and everywhere else it
stays an atom.  The default ``choice`` dialect has ``#`` and no cut: a
goal ``!`` is an error there.
"""

import re
from math import isinf

from mup import builtins as _builtins
from mup.errors import LoadError, MupError, MupSyntaxError
from mup.compiled import Predicate
from mup.kernel import CUT, TRUE, rebuild
from mup.terms import CONS, EMPTY_LIST, Compound, Const, Num, Var, fresh_var, mk_list

# ---------------------------------------------------------------------------
# Goals, clauses and programs


_CUT_ATOM = Const("!")  # a goal ``!`` in the prolog dialect is ``CUT`` instead
_NIL = Const(EMPTY_LIST)

# The connectives, by functor: every one has arity 2, and ``(C *-> T ; E)``
# is ``';'('*->'(C, T), E)``.  Any other atom or compound goal is a call.
CONNECTIVES = frozenset((",", "#", ";"))
# Indicators a program cannot define: the connectives, ``*->`` and cut.
_CONTROL = frozenset({(",", 2), ("#", 2), (";", 2), ("*->", 2), ("!", 0)})


def indicator(term):
    """The ``(name, arity)`` of a callable term."""
    if type(term) is Compound:
        return (term.functor, len(term.args))
    return (term.name, 0)


class Clause:
    """``head :- body``; unit clauses carry TRUE as body.

    The body is a term: connectives are compounds with the functors in
    ``CONNECTIVES``, and any other atom or compound in it is a call.
    The clause is compiled the first time it is tried:
    ``mup.compiled.compile_clause`` sets ``code``, the clause's generated
    (head matcher, body builder) pair, which is None until then.
    """

    __slots__ = ("head", "body", "code")

    def __init__(self, head, body=TRUE):
        self.head = head
        self.body = body
        self.code = None

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
    order.  ``predicates`` holds each predicate's clauses, index and
    dispatch (see ``mup.compiled``), made once all its clauses are read.
    """

    __slots__ = ("clauses", "predicates")

    def __init__(self, clauses):
        self.clauses = list(clauses)
        groups = {}
        for clause in self.clauses:
            key = indicator(clause.head)
            group = groups.get(key)
            if group is None:
                if key in _builtins.BUILTINS or key in _CONTROL:
                    raise LoadError(
                        "cannot redefine built-in predicate %s/%d" % key
                    )
                group = groups[key] = []
            group.append(clause)
        self.predicates = {key: Predicate(group) for key, group in groups.items()}

    def clauses_for(self, name, arity):
        pred = self.predicates.get((name, arity))
        return None if pred is None else pred.clauses

    def __len__(self):
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Lexer

# One alternative per token kind, tried in order; the longest symbol comes
# first.  A number takes ASCII digits only.  A quoted atom's token is its
# opening quote: ``_quoted_atom`` reads the rest.  A character that starts
# no token is ``bad``, so that ``finditer`` skips none.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | (?P<space>[^\S\n]+) | (?P<comment>%[^\n]*)
  | (?P<float>[0-9]+(?:\.[0-9]+)?[eE][+-]?[0-9]+|[0-9]+\.[0-9]+) | (?P<int>[0-9]+)
  | (?P<word>\w+) | (?P<qatom>')
  | (?P<punct>\*->|:-|>=|=<|//|[()\[\],|.\#;=<>+\-*/!]) | (?P<bad>.)
""", re.VERBOSE)
# One piece of a quoted atom's body: a run of plain characters or an
# escape.  The pieces are matched one at a time, because the regex engine
# keeps state for each repetition of a group.  A quote that is not doubled
# ends the atom: ``'a'''`` is the atom a'.
_QUOTED_PIECE = re.compile(r"[^'\\\n]+|''|\\[nt\\']")
_ESCAPES = {"''": "'", "\\n": "\n", "\\t": "\t", "\\\\": "\\", "\\'": "'"}


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
    """The tokens of ``text``, one at a time, then ``eof`` on every later call."""
    line, linestart, pos = 1, 0, 0
    while pos is not None:  # a scan, restarted after each quoted atom
        tokens, pos = _TOKEN.finditer(text, pos), None
        for token in tokens:
            kind, value, start = token.lastgroup, token.group(), token.start()
            if kind == "newline":
                line, linestart = line + 1, start + 1
                continue
            if kind == "space" or kind == "comment":
                continue
            col = start - linestart + 1
            if kind == "word":
                ch = value[0]
                if ch != "_" and not ch.isalpha():  # "²" and "٣" are \w too
                    kind = "bad"
                else:
                    kind = "var" if ch == "_" or ch.isupper() else "atom"
            elif kind == "int":
                try:
                    value = int(value)
                except ValueError:  # more digits than int() converts
                    raise MupSyntaxError(
                        "integer literal too long", line, col) from None
            elif kind == "float":
                value = float(value)
                if isinf(value):
                    raise MupSyntaxError("float literal out of range", line, col)
            elif kind == "qatom":
                value, pos = _quoted_atom(text, start + 1, line, col)
            if kind == "bad":
                msg = "unexpected character %r" % text[start]
                raise MupSyntaxError(msg, line, col)
            yield Token(kind, value, line, col)
            if pos is not None:
                break
    eof = Token("eof", None, line, len(text) - linestart + 1)
    while True:
        yield eof


def _quoted_atom(text, pos, line, col):
    """The atom whose body starts at ``pos``, and the position after it.

    ``col`` is the column of the opening quote, at ``pos - 1``.
    """
    start = pos
    pieces = []
    match = _QUOTED_PIECE.match
    while True:
        piece = match(text, pos)
        if piece is None:
            break
        pos = piece.end()
        piece = piece.group()
        pieces.append(_ESCAPES.get(piece, piece))
    if pos == len(text):
        raise MupSyntaxError("unterminated quoted atom", line, col)
    if text[pos] == "'":
        return "".join(pieces), pos + 1
    if text[pos] == "\n":
        msg = "newline in quoted atom"
    elif pos + 1 == len(text):
        msg = "bad escape in quoted atom"
    else:
        msg = "bad escape \\%s in quoted atom" % text[pos + 1]
    raise MupSyntaxError(msg, line, col + 1 + pos - start)


# ---------------------------------------------------------------------------
# Reader

# Infix operators, as in Prolog's op/3 table: name -> (precedence, left max,
# right max).  Both maxima below the precedence is xfx, the right one equal
# to it xfy, the left one equal to it yfx.  Prefix minus is fy 200.
_INFIX = {
    ":-": (1200, 1199, 1199),
    "#": (1100, 1099, 1100), ";": (1100, 1099, 1100),
    "*->": (1050, 1049, 1050),
    ",": (1000, 999, 1000),
    "=": (700, 699, 699), "<": (700, 699, 699), ">": (700, 699, 699),
    ">=": (700, 699, 699), "=<": (700, 699, 699), "is": (700, 699, 699),
    "+": (500, 500, 499), "-": (500, 500, 499),
    "*": (400, 400, 399), "/": (400, 400, 399), "//": (400, 400, 399),
    "mod": (400, 400, 399),
}
_MINUS = 200  # prefix minus
_ARG = 999  # arguments and list elements
# Functors that no called term has.  ``'*->'(C, T)`` is a goal only as the
# left side of ``;`` in the prolog dialect.
_NOT_CALLABLE = frozenset(_INFIX) | {"|", ".", "!"}
_NO_CUT = "cut is not part of this language; use '#' instead"
_DIALECTS = {  # per dialect: the connectives
    "choice": CONNECTIVES,
    "prolog": CONNECTIVES - {"#"},
}


class _Reader:
    def __init__(self, text, dialect):
        if dialect not in _DIALECTS:
            raise ValueError("unknown dialect %r" % (dialect,))
        self.pull = tokenize(text).__next__
        self.tok = self.pull()  # the one token of lookahead
        self.dialect = dialect
        self.connectives = _DIALECTS[dialect]
        self.start = None  # the first token of the sentence being read
        self.scope = {}
        self.var_order = []

    # -- token plumbing

    def next(self):
        tok = self.tok
        self.tok = self.pull()
        return tok

    def at_punct(self, value):
        tok = self.tok
        return tok.kind == "punct" and tok.value == value

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            self.fail("expected %r" % value, tok)

    def fail(self, msg, tok=None):
        tok = tok or self.tok
        got = "end of input" if tok.kind == "eof" else repr(tok.value)
        raise MupSyntaxError("%s, got %s" % (msg, got), tok.line, tok.col)

    def infix(self):
        """The infix operator at the current token, or None."""
        tok = self.tok
        if tok.kind == "qatom" or tok.value not in _INFIX:
            return None
        if tok.value == "#" and self.dialect == "prolog":
            self.fail("'#' is not available in the prolog dialect")
        if tok.value == "*->" and self.dialect != "prolog":
            self.fail("'*->' is only available in the prolog dialect")
        return tok.value

    # -- terms

    def read(self, max_prec):
        """A term of precedence at most ``max_prec``."""
        negs = 0  # a run of prefix minus signs is read in a loop
        while self.at_punct("-"):
            self.next()
            negs += 1
        tok = self.tok
        if negs and tok.kind in ("int", "float"):
            self.next()
            term = Num(-tok.value)
            negs -= 1
        else:
            term = self.primary()
        for _ in range(negs):
            term = Compound("-", (term,))
        prec = _MINUS if negs else 0
        while True:
            op = self.infix()
            if op is None:
                return term
            op_prec, left_max, right_max = _INFIX[op]
            if op_prec > max_prec or prec > left_max:
                return term
            self.next()
            if right_max < op_prec:
                term = Compound(op, (term, self.read(right_max)))
            else:  # a right-associative chain, nested to the right
                parts = [term, self.read(op_prec - 1)]
                while True:
                    nxt = self.infix()
                    if nxt is None or _INFIX[nxt][0] != op_prec:
                        break
                    if nxt != op:
                        self.fail("mixing %r and %r needs parentheses" % (op, nxt))
                    self.next()
                    parts.append(self.read(op_prec - 1))
                term = parts.pop()
                while parts:
                    term = Compound(op, (parts.pop(), term))
            prec = op_prec

    def primary(self):
        tok = self.next()
        kind = tok.kind
        if kind == "int" or kind == "float":
            return Num(tok.value)
        if kind == "var":
            name = tok.value
            if name == "_":
                return fresh_var("_")
            var = self.scope.get(name)
            if var is None:
                var = self.scope[name] = fresh_var(name)
                self.var_order.append(var)
            return var
        if kind == "atom" or kind == "qatom":
            if not self.at_punct("("):
                return Const(tok.value)
            self.next()
            args = self.items()
            self.expect_punct(")")
            return Compound(tok.value, tuple(args))
        if tok.value == "(":  # punctuation or end of input from here on
            term = self.read(1200)
            self.expect_punct(")")
            return term
        if tok.value == "[":
            if self.at_punct("]"):
                self.next()
                return _NIL
            items = self.items()
            tail = None
            if self.at_punct("|"):
                self.next()
                tail = self.read(_ARG)
            self.expect_punct("]")
            return mk_list(items, tail)
        if tok.value == "!":
            return _CUT_ATOM
        self.fail("expected a term", tok)

    def items(self):
        """Comma-separated arguments or list elements."""
        items = [self.read(_ARG)]
        while self.at_punct(","):
            self.next()
            items.append(self.read(_ARG))
        return items

    # -- sentences: clauses, queries and read/1 terms

    def sentence(self, last=False):
        """A term read at 1200 up to its ``.`` (the last one if ``last``).

        Reading descends into arguments and parentheses on the host stack.
        """
        self.start = self.tok
        self.scope = {}
        self.var_order = []
        try:
            term = self.read(1200)
        except RecursionError:
            tok = self.tok
            raise MupSyntaxError("nested too deeply", tok.line, tok.col) from None
        self.expect_punct(".")
        if last and self.tok.kind != "eof":
            self.fail("unexpected input after '.'")
        return term

    def goal(self, term):
        """Check that a clause body or query ``term`` is a goal; return it.

        In the prolog dialect each ``!`` that stands as a goal becomes
        ``CUT``, and the connectives above it are made anew; every other
        part is kept as it is.
        """
        connectives = self.connectives
        prolog = self.dialect == "prolog"
        # The parts still to check, leftmost last; a connective comes back
        # as (connective,) once its two parts are checked.
        todo = [term]
        done = []  # the checked parts, for the connectives above them
        while todo:
            t = todo.pop()
            tt = type(t)
            if tt is tuple:
                t = t[0]
                right = done.pop()
                left = done.pop()
                if left is not t.args[0] or right is not t.args[1]:
                    t = Compound(t.functor, (left, right))
            elif tt is Compound:
                functor, args = t.functor, t.args
                if len(args) == 2 and functor in connectives:
                    left, right = args
                    if (functor == ";" and prolog and type(left) is Compound
                            and left.functor == "*->" and len(left.args) == 2):
                        todo += ((t,), right, (left,), *reversed(left.args))
                    else:
                        todo += ((t,), right, left)
                    continue
                if functor == "*->" and len(args) == 2 and prolog:
                    self.goal_error("soft if-then-else needs an else: (C *-> T ; E)", t)
                elif functor in _NOT_CALLABLE and not (
                    len(args) == 2 and _INFIX.get(functor, (0,))[0] == 700
                ):
                    self.goal_error("this term cannot be called as a goal", t)
            elif tt is Var:
                self.goal_error("a variable is not a goal", t)
            elif tt is Num:
                self.goal_error("a number is not a goal", t)
            elif t is _CUT_ATOM:
                if not prolog:
                    self.goal_error(_NO_CUT, t)
                t = CUT
            done.append(t)
        return done[0]

    def goal_error(self, msg, term):
        tok, text = self.start, pretty(term)
        text = text if len(text) <= 60 else text[:57] + "..."
        raise MupSyntaxError("%s: %s" % (msg, text), tok.line, tok.col)

    def clause(self):
        head = self.sentence()
        tok = self.start
        body = TRUE
        if type(head) is Compound and head.functor == ":-" and len(head.args) == 2:
            head, body = head.args
            body = self.goal(body)
        if type(head) is Var or type(head) is Num:
            self.fail("clause head must be an atom or compound", tok)
        if (
            type(head) is Compound
            and head.functor in _NOT_CALLABLE
            and not (head.functor == "is" and len(head.args) == 2)
        ):
            # is/2 falls through so that redefining the built-in surfaces
            # as the load-time error it is; no goal could call any other
            # operator head.
            self.fail("clause head cannot be an operator", tok)
        return Clause(head, body)


def parse_program(text, dialect="choice"):
    """Parse a full program (clauses terminated by ``.``)."""
    reader = _Reader(text, dialect)
    clauses = []
    while reader.tok.kind != "eof":
        clauses.append(reader.clause())
    return Program(clauses)


def parse_query(text, dialect="choice"):
    """Parse one goal terminated by ``.``; free variables become answers."""
    reader = _Reader(text, dialect)
    goal = reader.goal(reader.sentence(last=True))
    return Query(goal, reader.var_order)


def parse_term(text):
    """Parse a single term terminated by ``.`` (used by read/1)."""
    return _Reader(text, "choice").sentence(last=True)


# ---------------------------------------------------------------------------
# Pretty printer

_ATOM_BARE = frozenset("abcdefghijklmnopqrstuvwxyz")


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
    """Render a term; the result reparses to an equal one.

    ``quoted=False`` drops atom quoting (the write/1 convention).  A
    connective prints in canonical form, ``','(a, b)``, unless it is
    given as ``(goal,)``: then it stands as a goal and prints as an
    operator.  Iterative, so terms of any depth render in constant host
    stack.
    """
    out = []
    # Parts still to render, the text (str) between them, and (goal,) for a
    # part that stands as a goal.
    todo = [term]
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is str:
            out.append(t)
        elif tt is Var:
            out.append(t.name)
        elif tt is Const:
            out.append("!" if t is CUT else _atom_text(t.name, quoted))
        elif tt is Num:
            try:
                out.append(repr(t.value))
            except ValueError:  # more digits than the host converts
                raise MupError("integer too large to print") from None
        elif tt is Compound:
            todo.extend(reversed(_pieces(t, quoted)))
        else:
            todo.extend(reversed(_goal_pieces(t[0])))
    return "".join(out)


def pretty_goal(goal):
    """Render a goal: its connectives print as operators."""
    return pretty((goal,))


def _prec(term):
    """The precedence ``pretty`` gives a term: nonzero for an operator."""
    if type(term) is Compound:
        if len(term.args) == 2:
            prec = _INFIX.get(term.functor, (0,))[0]
            return prec if prec <= 700 else 0  # control prints canonical
        if term.functor == "-" and len(term.args) == 1:
            return _MINUS
    return 0


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
        if term is not _NIL:
            pieces += ("|", term)
        pieces.append("]")
        return pieces
    prec = _prec(term)
    if prec == _MINUS:
        if type(args[0]) is Num:
            # "-3" would reparse as a negative literal, not as negation.
            return ["-(", args[0], ")"]
        return ["-", *_wrap(args[0], _MINUS)]
    if prec:
        _, left_max, right_max = _INFIX[functor]
        return [*_wrap(args[0], left_max), " %s " % functor,
                *_wrap(args[1], right_max)]
    # '[]' quoted: a bare "[](" does not read as a functor.
    name = "'[]'" if functor == EMPTY_LIST and quoted else _atom_text(functor, quoted)
    pieces = [name + "("]
    for i, arg in enumerate(args):
        if i:
            pieces.append(", ")
        pieces.append(arg)
    pieces.append(")")
    return pieces


def _wrap(arg, max_prec):
    """``arg`` as an operand of precedence at most ``max_prec``."""
    if _prec(arg) > max_prec:
        return ("(", arg, ")")
    return (arg,)


def connective(goal):
    """The connective at the top of ``goal``, or None for a call.

    ``*->`` stands for ``(C *-> T ; E)``, a ``;`` whose left side is a
    ``*->`` compound.
    """
    if type(goal) is not Compound or len(goal.args) != 2:
        return None
    functor = goal.functor
    if functor == ";":
        left = goal.args[0]
        if type(left) is Compound and left.functor == "*->" and len(left.args) == 2:
            return "*->"
    return functor if functor in CONNECTIVES else None


def _goal_pieces(goal):
    """One goal's rendering: its text and its parts, in order.

    A part that may be a connective comes as ``(part,)``, so that it
    prints as a goal too.
    """
    kind = connective(goal)
    if kind is None:  # a call
        return [goal]
    left, right = goal.args
    if kind == ",":
        pieces = []
        while kind == ",":  # a right-nested chain prints flat
            left, goal = goal.args
            inner = connective(left)
            if inner == ",":
                pieces += ("(", (left,), "), ")
            else:
                pieces += ((left,) if inner else left, ", ")
            kind = connective(goal)
        pieces.append((goal,) if kind else goal)
        return pieces
    if kind == "*->":
        cond, then = left.args
        return ["((", (cond,), ") *-> (", (then,), ") ; (", (right,), "))"]
    # A disjunction nested on the left, or of the other kind on the right,
    # is bracketed.
    left_kind, right_kind = connective(left), connective(right)
    left = ("(", (left,), ")") if left_kind in ("#", ";") else ((left,),)
    if right_kind in ("#", ";") and right_kind != kind:
        right = ("(", (right,), ")")
    else:
        right = ((right,),)
    return ["(", *left, " %s " % kind, *right, ")"]


def pretty_clause(clause):
    head = pretty(clause.head)
    if clause.body is TRUE:
        return "%s." % head
    return "%s :- %s." % (head, pretty_goal(clause.body))


def format_program(program):
    return "\n".join(pretty_clause(c) for c in program.clauses) + "\n"


# ---------------------------------------------------------------------------
# Walks over terms (goals among them), shared by the engine, oracle and
# transpiler.  Each is a ``kernel.rebuild``, so no term is too deep, and a
# bound variable stands for its value.


def free_goal_vars(goal):
    """The unbound variables of ``goal`` in first-occurrence order."""
    found = {}
    rebuild(goal, lambda var: found.setdefault(var.id, var))
    return list(found.values())


def answer_vars_of(goal):
    """A goal's default answer variables: its free variables but ``_``."""
    return [v for v in free_goal_vars(goal) if v.name != "_"]


def subst_goal(root, mapping):
    """Replace variables by id according to ``mapping`` (a dict id->Term).

    Parts of the term ``root`` with nothing replaced are shared.
    """
    return rebuild(root, lambda var: mapping.get(var.id, var))
