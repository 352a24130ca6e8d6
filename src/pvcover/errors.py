"""Exception hierarchy shared by all pvcover modules."""


class PvcError(Exception):
    """Base class for all pvcover errors."""


class UnknownVertex(PvcError):
    pass


class LimitExceeded(PvcError):
    """An enumeration guard (path count, family size, state count) was hit."""


class SizeLimitExceeded(LimitExceeded):
    """An exact/enumeration routine was asked to run beyond its size guard."""


class UnknownOracle(PvcError, KeyError):
    pass


class EmptyFamily(PvcError):
    pass


class FamilyPropertyViolated(PvcError):
    """A candidate family member failed the coverage property it must satisfy."""


class ParseError(PvcError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WeightMismatch(ParseError):
    """A solution file's stated weight differs from the recomputed one."""


class MalformedPatch(ParseError):
    """A patch that does not fit the graph it is applied to."""


class InfeasibleConfig(PvcError):
    pass


class UnsupportedInstance(PvcError, ValueError):
    """A reoptimizer cannot take this instance: its old cover does not cover
    the old graph at k, or k is outside the algorithm's range."""
