"""The three exception families, one per exit code of the CLI.

    ValidationError   1   bad input or an unmet precondition
    NumericalError    2   a numerical procedure gave up
    UsageError       64   a malformed command line

Each message names its cause; the CLI prints it on stderr.
"""


class ValidationError(Exception):
    """Invalid input or unmet precondition."""


class NumericalError(Exception):
    """A numerical procedure failed."""


class UsageError(Exception):
    """Malformed command line."""
