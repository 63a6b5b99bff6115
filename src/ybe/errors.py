"""Exception types shared across the package."""


class YbeError(Exception):
    """Base class for all package-specific errors."""


class SizeCapExceeded(YbeError):
    """A closure, search, or construction would exceed the configured cap.

    Distinct from a negative answer: the computation was declined, not
    completed.
    """


class AxiomError(YbeError, ValueError):
    """Input tables fail a required axiom.

    Carries the offending report or witness on the ``report`` /
    ``witness`` attributes when available.
    """

    def __init__(self, message, report=None, witness=None):
        super().__init__(message)
        self.report = report
        self.witness = witness


class ParseError(YbeError, ValueError):
    """Malformed input file or command-line value.

    ``line``, the 1-based source line when known, prefixes the message
    as "line N: ".
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
