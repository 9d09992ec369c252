"""Exception hierarchy shared by all cgtns modules."""


class CgtnsError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(CgtnsError):
    """A requested object exceeds a hard size limit (bit width, oracle size)."""


class EmptySpaceError(CgtnsError):
    """No determinant satisfies the requested particle/spin constraints."""


class EmptyBasisError(CgtnsError):
    """No spin eigenfunction with the requested total spin exists in the space."""


class DimensionError(CgtnsError):
    """Vector or matrix dimensions do not match the space they index."""


class FrozenTensorError(CgtnsError):
    """An operation requiring an active correlator tensor hit a frozen one."""


class DegenerateStateError(CgtnsError):
    """All configuration weights vanished; the energy functional is undefined."""


class EstimatorUndefinedError(CgtnsError):
    """A per-CSF energy estimator was requested for a weight below the floor."""


class ConvergenceError(CgtnsError):
    """An iterative solve stopped at its iteration bound without converging."""


class ParseError(CgtnsError):
    """An input file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConfigError(CgtnsError):
    """A run configuration is missing keys or holds inconsistent values."""
