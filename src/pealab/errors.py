"""Exception hierarchy for the workbench."""


class PealabError(Exception):
    """Base class for all workbench errors."""


class InvalidStructure(PealabError, ValueError):
    """A structure or morphism violates a semantic requirement."""


class FormatError(PealabError, ValueError):
    """An input file or object does not match the expected schema."""


class UsageError(FormatError):
    """A command line the CLI cannot parse; ``verb`` is the verb it names,
    or ``pealab`` when it names none."""

    def __init__(self, message: str, verb: str):
        super().__init__(message)
        self.verb = verb


class LimitExceeded(PealabError, RuntimeError):
    """A requested size is beyond what the catalog can label."""


class TransferError(PealabError, RuntimeError):
    """Structure transfer along a coequalizer failed."""
