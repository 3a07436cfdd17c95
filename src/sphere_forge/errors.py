"""Exception hierarchy for sphere-forge.

Every operation documents which of these it may raise; anything else
escaping the library is a bug.
"""


class SphereForgeError(Exception):
    """Base class for all library errors."""


class PreconditionFailed(SphereForgeError):
    """An operation was called with arguments outside its contract."""


class DuplicateVertexInFacet(SphereForgeError):
    """A facet description repeats a vertex label."""


class VertexCollision(SphereForgeError):
    """Join or cone arguments share vertices."""


class NotPure(SphereForgeError):
    """Operation requires all facets to have equal dimension."""


class FaceNotInComplex(SphereForgeError):
    """The named simplex is not a face of the complex."""


class NonOrientable(SphereForgeError):
    """Sign propagation ran into a contradiction.

    ``witness`` is a facet where the contradiction surfaced.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotClosed(SphereForgeError):
    """Operation requires a complex without boundary."""


class MapNotTotal(SphereForgeError):
    """A vertex map is missing assignments for some domain vertices."""


class NotSimplicial(SphereForgeError):
    """A vertex map does not send simplices to simplices."""


class InconsistentAlg(SphereForgeError):
    """Signed preimage counts disagree across target facets.

    This signals an orientation or construction bug, never valid output.
    """


class DomainMismatch(SphereForgeError):
    """Composition of maps whose domains/codomains do not line up."""


class KernelRankNotOne(SphereForgeError):
    """Top boundary kernel is not one-dimensional (source is not a
    homology sphere)."""


class BadLength(SphereForgeError):
    """Polygon length is not three times an integer."""


class OutOfRange(SphereForgeError):
    """Enumeration parameter outside the supported search budget."""
