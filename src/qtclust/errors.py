"""Exception types shared across the package."""


class QTClustError(Exception):
    """Base class for every error raised by this package."""


class InputError(QTClustError):
    """Malformed or degenerate input data (bad arrays, bad files)."""


class ParameterError(QTClustError):
    """A parameter value outside its documented range."""


class NumericError(QTClustError):
    """A numerical routine failed or hit a degenerate regime."""


class IsolatedNodeError(InputError):
    """A zero-degree node cannot be degree-normalized."""


class DegenerateGapError(NumericError):
    """The selected spectral gap is zero; pass an explicit damping rate."""


class InvalidBlockError(NumericError):
    """A cluster block ground state has mixed signs and is not a valid orbital."""

