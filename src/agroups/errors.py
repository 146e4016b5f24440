"""Exception types shared across the engine.

Every operation that can refuse an input raises one of these instead of a
bare ValueError, so the CLI can map failures to diagnostics uniformly.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""


class LimitExceeded(EngineError):
    """Input is valid but outside the configured desk-scale limits."""


class NotPrime(EngineError):
    pass


class NotCoprime(EngineError):
    pass


class BadModulus(EngineError):
    pass


class FieldMismatch(EngineError):
    pass


class DegreeMismatch(EngineError):
    pass


class NotTransitive(EngineError):
    pass


class SingularGenerator(EngineError):
    pass


class CharacteristicConflict(EngineError):
    pass


class NotNormal(EngineError):
    pass


class DegreeLimit(EngineError):
    pass


class SamePrime(EngineError):
    pass


class NotHomomorphism(EngineError):
    pass


class NotPrimitive(EngineError):
    pass


class NotInVariety(EngineError):
    pass


class InvalidParams(EngineError):
    pass
