"""Public unification entry point over a Bindings store.

Thin wrapper around the kernel's unifier; exists so callers deal in
Bindings objects and an occurs-check flag rather than a raw trail.
"""

from mup import kernel


def unify(t, s, bindings, occurs_check=False):
    """Extend ``bindings`` to a most general unifier of ``t`` and ``s``.

    True on success; on failure every binding it made is undone (the
    trail rewinds any partial work).  Failure is an expected outcome,
    not an error.  With the occurs check off, unifying a variable with a
    term containing it builds a cyclic term.  Resolving or evaluating a
    cyclic term raises MupError; unifying two of them may not terminate.
    """
    return kernel.unify(t, s, bindings.trail, occurs_check)
