"""Exception types shared across the toolkit."""


class PosetSecretaryError(Exception):
    """Base class for all toolkit-specific errors."""


class EmptyPosetError(PosetSecretaryError, ValueError):
    """A poset must contain at least one element."""


class CycleError(PosetSecretaryError):
    """The given relations would force a < a for some element."""


class TooLargeError(PosetSecretaryError):
    """Instance exceeds a size cap: of the exact tables or of simulation."""


class NotMaximalError(PosetSecretaryError, ValueError):
    """The operation is only defined for maximal elements."""


class DimensionError(PosetSecretaryError, ValueError):
    """Trial and poset sizes disagree."""


class ZeroTrialsError(PosetSecretaryError, ValueError):
    """At least one Monte Carlo trial is required."""


class PosetFileError(PosetSecretaryError):
    """A poset text document could not be parsed."""


class GeneratorSpecError(PosetSecretaryError):
    """A generator spec string (family:params) could not be parsed."""


class SourceError(PosetSecretaryError):
    """The poset source string could not be resolved."""
