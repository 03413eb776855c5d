"""The four benchmark workloads: programs, seeded queries, expected answers.

Nothing here imports mup.  Every expected answer is computed in plain
Python, so a wrong engine cannot vouch for itself.

A workload yields its queries in batches.  A batch has the same shape for
every seed (the same query kinds, each with the same amount of work), so
exact counts taken over whole batches repeat across seeds.
"""

import random
import re

NREV_LEN = 150
COUNTDOWN_N = 100_000
QUEENS_N = 8
FACTS = 10_000
FACT_VALUES = 1_000  # each value is stored FACTS // FACT_VALUES times
POINT_PER_BATCH = 3  # point lookups per fact_table batch, plus one reverse

NREV_PROGRAM = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

COUNTDOWN_PROGRAM = "c(N) :- (N =< 0) # (M is N-1, c(M)).\n"

QUEENS_PROGRAM = """\
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
queens(Qs) :- place(%s, [], Qs).
place([], Qs, Qs).
place(Us, Safe, Qs) :- sel(Q, Us, R), safe(Q, Safe, 1), place(R, [Q|Safe], Qs).
safe(_, [], _).
safe(Q, [Q1|Qs], D) :- ne(Q, Q1 + D), ne(Q, Q1 - D), D1 is D + 1, safe(Q, Qs, D1).
ne(A, B) :- (A < B) # (A > B).
"""


class Query:
    """One query: its kind, its text, and a check of its rendered answers.

    ``check`` takes the list of rendered answers, in stream order, and
    returns None when they are right or a message saying what is wrong.
    """

    __slots__ = ("kind", "text", "check")

    def __init__(self, kind, text, check):
        self.kind = kind
        self.text = text
        self.check = check


class Workload:
    __slots__ = ("program", "sizes", "batches")

    def __init__(self, program, sizes, batches):
        self.program = program
        self.sizes = sizes
        self.batches = batches  # endless iterator of lists of Query


def _list(items):
    return "[%s]" % ", ".join(str(x) for x in items)


def _expect(expected):
    def check(answers):
        if answers == expected:
            return None
        return "expected %d answer(s) %s..., got %d: %s..." % (
            len(expected), str(expected)[:80], len(answers), str(answers)[:80],
        )

    return check


def _repeat(batch):
    while True:
        yield batch


def nrev(seed):
    """Naive reverse of one seeded list: the classic LIPS reference."""
    rng = random.Random(seed)
    items = [rng.randrange(1000) for _ in range(NREV_LEN)]
    query = Query(
        "nrev",
        "nrev(%s, R)." % _list(items),
        _expect(["R = %s" % _list(reversed(items))]),
    )
    return Workload(NREV_PROGRAM, {"list_length": NREV_LEN}, _repeat([query]))


def countdown(seed):
    """A deterministic loop with two builtins and a commit on every step."""
    query = Query("countdown", "c(%d)." % COUNTDOWN_N, _expect(["true"]))
    return Workload(COUNTDOWN_PROGRAM, {"n": COUNTDOWN_N}, _repeat([query]))


def queens_solutions(n):
    """Every placement of n non-attacking queens, by plain backtracking."""
    out = []

    def extend(placed):
        if len(placed) == n:
            out.append(tuple(placed))
            return
        for q in range(1, n + 1):
            if no_attack(placed + [q]):
                extend(placed + [q])

    extend([])
    return out


def no_attack(placement):
    """True iff no two queens in ``placement`` share a row or a diagonal."""
    for i, a in enumerate(placement):
        for j in range(i + 1, len(placement)):
            b = placement[j]
            if a == b or abs(a - b) == j - i:
                return False
    return True


def _check_queens(n):
    count = len(queens_solutions(n))
    pattern = re.compile(r"Qs = \[(\d+(?:, \d+)*)\]\Z")

    def check(answers):
        seen = set()
        for text in answers:
            match = pattern.match(text)
            if match is None:
                return "not a placement: %r" % text
            placement = tuple(int(x) for x in match.group(1).split(", "))
            if sorted(placement) != list(range(1, n + 1)):
                return "not a permutation of 1..%d: %r" % (n, text)
            if not no_attack(placement):
                return "queens attack each other: %r" % text
            if placement in seen:
                return "repeated answer: %r" % text
            seen.add(placement)
        if len(seen) != count:
            return "expected %d placements, got %d" % (count, len(seen))
        return None

    return check


def queens(seed):
    """All answers of n-queens: heavy backtracking, many answers rendered."""
    program = QUEENS_PROGRAM % _list(range(1, QUEENS_N + 1))
    query = Query("queens", "queens(Qs).", _check_queens(QUEENS_N))
    return Workload(program, {"n": QUEENS_N}, _repeat([query]))


def fact_table(seed):
    """A seeded table of facts, read by point lookups and reverse lookups.

    Each value is stored exactly FACTS // FACT_VALUES times, so every
    reverse lookup (a full scan on the second argument) returns the same
    number of answers.  The table ends in a sentinel fact that no query
    matches: a match on the last candidate clause takes a shorter path
    through the engine, and keeping every match off it makes the counts of
    a batch the same for every seed.
    """
    rng = random.Random(seed)
    keys = rng.sample(range(1, 1_000_000), FACTS)
    values = [i % FACT_VALUES for i in range(FACTS)]
    rng.shuffle(values)
    lines = ["f(%d, v%d).\n" % kv for kv in zip(keys, values)]
    lines.append("f(0, sentinel).\n")
    by_value = {}
    for k, v in zip(keys, values):
        by_value.setdefault(v, []).append(k)

    def batches():
        while True:
            batch = []
            # One point lookup in each equal part of the table, so that
            # every batch scans as deep before its answers as any other.
            for part in range(POINT_PER_BATCH):
                i = rng.randrange(part * FACTS // POINT_PER_BATCH,
                                  (part + 1) * FACTS // POINT_PER_BATCH)
                batch.append(Query(
                    "point", "f(%d, V)." % keys[i],
                    _expect(["V = v%d" % values[i]]),
                ))
            v = rng.randrange(FACT_VALUES)
            batch.append(Query(
                "reverse", "f(K, v%d)." % v,
                _expect(["K = %d" % k for k in by_value[v]]),
            ))
            rng.shuffle(batch)
            yield batch

    sizes = {"facts": FACTS + 1, "values": FACT_VALUES,
             "point_per_batch": POINT_PER_BATCH, "reverse_per_batch": 1}
    return Workload("".join(lines), sizes, batches())


WORKLOADS = {
    "nrev": nrev,
    "countdown": countdown,
    "queens": queens,
    "fact_table": fact_table,
}
