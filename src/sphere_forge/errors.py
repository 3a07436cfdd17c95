"""Exception hierarchy for sphere-forge.

Every library error belongs to one of two families, and the family
alone fixes the command-line exit code:

* :class:`PreconditionFailed` (exit 2): an operation was called with
  arguments outside its contract, such as a repeated vertex in a facet,
  a partial or non-simplicial map, or a parameter out of range.  The
  message names what is wrong.
* :class:`CheckFailed` (exit 1): the input is well formed but fails a
  mathematical check.  Its four kinds are the classes below.

Every operation documents which of these it may raise; anything else
escaping the library is a bug.
"""


class SphereForgeError(Exception):
    """Base class for all library errors."""


class PreconditionFailed(SphereForgeError):
    """An operation was called with arguments outside its contract."""


class CheckFailed(SphereForgeError):
    """Well-formed input that fails a mathematical check."""


class NonOrientable(CheckFailed):
    """Sign propagation ran into a contradiction.

    ``witness`` is a facet where the contradiction surfaced.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotClosed(CheckFailed):
    """Operation requires a complex without boundary."""


class InconsistentAlg(CheckFailed):
    """Signed preimage counts disagree across target facets.

    This signals an orientation or construction bug, never valid output.
    """


class KernelRankNotOne(CheckFailed):
    """Top boundary kernel is not one-dimensional (source is not a
    homology sphere)."""
