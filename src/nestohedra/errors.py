"""Exception types shared across the package."""


class NestohedraError(Exception):
    """Base class for all package errors."""


class HypergraphError(NestohedraError, ValueError):
    """Invalid hypergraph data or a violated operation precondition."""


class EmptyMemberError(HypergraphError):
    pass


class DuplicateMemberError(HypergraphError):
    pass


class CarrierMismatchError(HypergraphError):
    pass


class UnknownAtomError(HypergraphError):
    pass


class NotAtomicError(HypergraphError):
    pass


class NotSubsetError(HypergraphError):
    pass


class NotASCError(HypergraphError):
    """Operation needs an atomic, saturated, connected hypergraph."""


class NotMemberError(HypergraphError):
    pass


class NotAConstructionError(HypergraphError):
    pass


class STermSyntaxError(NestohedraError, ValueError):
    """Malformed term text."""


class RepeatedAtomError(NestohedraError, ValueError):
    pass


class WordAtomsError(NestohedraError, ValueError):
    """Atom names that words cannot spell so that they parse back."""


class CarrierOverlapError(NestohedraError, ValueError):
    pass


class BadFactorError(NestohedraError, ValueError):
    pass


class NotFacetError(NestohedraError, ValueError):
    pass


class NotComparableError(NestohedraError, ValueError):
    pass


class MalformedPosetError(NestohedraError, ValueError):
    """Declared ranks are inconsistent with the order relation."""


class DimensionMismatchError(NestohedraError, ValueError):
    pass


class NotTubesError(NestohedraError, ValueError):
    pass


class EmptyCarrierError(NestohedraError, ValueError):
    pass


class BadEdgeError(NestohedraError, ValueError):
    pass


class CarrierTooLargeError(NestohedraError, ValueError):
    pass


class UnknownNameError(NestohedraError, KeyError):
    pass
