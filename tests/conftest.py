import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mup.engine import Engine, SolveConfig
from mup.syntax import answer_vars_of, parse_program


def collect(program_text, query_text, **cfg_kwargs):
    """Run a query over program text; returns (list of rendered solutions,
    outcome)."""
    program = parse_program(program_text)
    engine = Engine(program, SolveConfig(**cfg_kwargs))
    result = engine.run_query(query_text)
    if result.error is not None:
        raise result.error
    return [s.render() for s in result.solutions], result.outcome


def collect_goal(program, goal, **cfg_kwargs):
    """Like collect, but for an already-built goal AST; returns QueryResult."""
    answer_vars = answer_vars_of(goal)
    engine = Engine(program, SolveConfig(**cfg_kwargs))
    return engine.solve_collect(goal, answer_vars)


@pytest.fixture
def member_choice():
    return parse_program("member(X,[Y|L]) :- (Y = X) # member(X,L).")


@pytest.fixture
def member_classic():
    return parse_program("member(X,[Y|L]) :- (Y = X) ; member(X,L).")


@pytest.fixture
def max_program():
    return parse_program("max(X,Y,M) :- (X >= Y, M = X) # (X < Y, M = Y).")


@pytest.fixture
def son_program():
    return parse_program(
        """
        son(X,Y) :- (male(X), father(Y,X)) # (female(X), mother(Y,X)).
        male(tom).
        father(bob,tom).
        father(jim,tom).
        female(ann).
        mother(sue,ann).
        """
    )


@pytest.fixture
def rprime_program():
    return parse_program(
        """
        rprime :- read(X),
                  ((prime(X), write('prime')) # (composite(X), write('composite'))).
        prime(2). prime(3). prime(5). prime(7).
        composite(4). composite(6). composite(8). composite(9).
        """
    )
