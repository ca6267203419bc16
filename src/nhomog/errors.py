"""Exception hierarchy shared by all modules, and the one index check."""

from __future__ import annotations

import operator


class NHomogError(Exception):
    """Base class for all library errors."""


class InputError(NHomogError):
    """Base class for faults in the caller's input: malformed data, an
    argument outside an operation's domain, or an unmet precondition.
    The command line exits 2 on these."""


class NotHermitian(InputError):
    pass


class NotSquare(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class DomainError(InputError):
    """A scalar function was applied outside its domain, or an input
    carries non-finite entries."""


class NumericalFailure(NHomogError):
    """A rank decision was ambiguous, an eigensolver failed, or an
    internal cross-check that must hold mathematically was violated."""


class NotIrreducible(NHomogError):
    pass


class NotNHomogeneous(NHomogError):
    pass


class ArityMismatch(InputError):
    pass


class TableMismatch(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


def check_index(i, bound: int, what: str) -> int:
    """``i`` as an int, when it is an integer in [0, bound): a Python or
    numpy integer, never a bool, float or string.  Otherwise
    IndexOutOfRange, naming the index as ``what``."""
    try:
        index = operator.index(i)
    except TypeError:
        index = None
    if index is None or isinstance(i, bool):  # bool is an int subclass
        raise IndexOutOfRange(f"{what} {i!r} is not an integer")
    if not 0 <= index < bound:
        raise IndexOutOfRange(f"{what} {i} out of range [0, {bound})")
    return index


class MCBudgetTooSmall(InputError):
    pass


class SpaceMismatch(InputError):
    pass


class NotAStarHom(InputError):
    pass


class SamePoint(InputError):
    pass


class PreconditionFailed(InputError):
    pass


class HypothesisViolated(NHomogError):
    pass


class ParseError(InputError):
    pass


class SchemaError(InputError):
    pass
