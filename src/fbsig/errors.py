"""Exception hierarchy shared by all modules."""

import numpy as np


class FbsigError(Exception):
    """Base class for all package errors.

    An error raised while evaluating a batch of points carries in `columns`
    the indices of the columns that failed; None means every column.
    """

    columns = None


def check_columns(bad, make_error):
    """Raise `make_error(i)` if `bad` is set, for one point or a batch.

    `bad` is a boolean for one point or a boolean array with one entry per
    column; `i` is None for one point and the first failing column of a
    batch, whose failing columns go into the error's `columns`.
    """
    if np.ndim(bad) == 0:
        if bad:
            raise make_error(None)
        return
    columns = np.flatnonzero(bad)
    if columns.size:
        exc = make_error(columns[0])
        exc.columns = columns
        raise exc


def at(value, column):
    """The entry of a per-column value at `column` (None: one point)."""
    return value if column is None else value[column]


class DivisionBySingular(FbsigError):
    """Division by a value whose constant term is (numerically) zero."""


class DomainError(FbsigError):
    """Elementary function applied outside its domain (log of <= 0, ...)."""


class OrderExceeded(FbsigError):
    """A derivative of order higher than the stored truncation was requested."""


class ExpressionSyntaxError(FbsigError):
    """Malformed expression text. `offset` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier outside the allowed variable set and function names."""

    def __init__(self, name, offset):
        ExpressionSyntaxError.__init__(self, "unknown identifier '%s'" % name, offset)
        self.name = name


class ArityError(ExpressionSyntaxError):
    """Function called with the wrong number of arguments."""


class NonRegular(FbsigError):
    """Jet fails a regularity condition. `flag` names the failing test."""

    def __init__(self, flag, magnitude=None):
        msg = "non-regular jet: %s" % flag
        if magnitude is not None:
            msg += " (scaled magnitude %.3e)" % magnitude
        super().__init__(msg)
        self.flag = flag
        self.magnitude = magnitude


class SingularTransform(FbsigError):
    """Feedback map has a (numerically) singular prolonged Jacobian."""


class RelationViolation(FbsigError):
    """A structural zero of the commutation relations failed its tolerance."""


class EmptyCloud(FbsigError):
    """No grid point of the sampled domain passed the regularity tests."""


class TooFewSamples(FbsigError):
    """Not enough signature samples for a dimension estimate."""


class DependentBasis(FbsigError):
    """Gradients of the chosen invariant basis are (numerically) dependent."""


class ConfigError(FbsigError):
    """Malformed run configuration (missing names, bad tolerances, ...)."""
