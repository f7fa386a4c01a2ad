"""Exception types raised by the hausdim package.

Configuration problems (bad family parameters, bad mesh requests) and
numeric failures (error model too large, no sign change, divergent
iteration) get distinct classes so the CLI can map them to exit codes.
"""


class HausdimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HausdimError):
    """Invalid user-supplied configuration (CLI exit code 2)."""


class NumericError(HausdimError):
    """Numeric failure during a computation (CLI exit code 3)."""


# --- family construction / evaluation ---

class NonPositiveDigit(ConfigError):
    pass


class EmptyFamily(ConfigError):
    pass


class ParamOutOfRange(ConfigError):
    pass


class BadIndex(ConfigError):
    pass


class OutOfDomain(ConfigError):
    pass


class MissingDerivatives(ConfigError):
    pass


class NoContractionBound(NumericError):
    pass


# --- call arguments ---

class BadParams(ConfigError):
    pass


# --- discretization ---

class ErrTooLarge(NumericError):
    """Error-model coefficient so large that matrix entries would go negative."""


class NegativeEntry(NumericError):
    pass


class MapEscapesDomain(NumericError):
    pass


# --- spectral ---

class NonPositiveVector(NumericError):
    pass


class ZeroRowSum(NumericError):
    pass


class PowerDivergence(NumericError):
    pass


# --- root solving ---

class NoSignChange(NumericError):
    pass
