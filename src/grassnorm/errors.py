"""Exception types raised by the geometric operations."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands live in incompatible ambient spaces or have wrong shapes."""


class DependentPoints(GeometryError):
    """Points intended to span a subspace are linearly dependent."""


class InvalidPair(GeometryError):
    """A subspace and its complement do not span the ambient space."""


class NonPositiveTrace(GeometryError):
    """Cross-ratio trace is outside the domain of the log distance."""


class MapUndefined(GeometryError):
    """A normalizing map failed to produce a complement at some point."""


class FramingFailure(GeometryError):
    """A displaced complement cannot be expressed in the reference frame."""


class TangentSubspace(GeometryError):
    """A subspace touches the quadric, so its polar is not a complement."""


class NotPolarAdapted(GeometryError):
    """A frame does not split orthogonally with respect to the quadric."""


class DegenerateBlock(GeometryError):
    """A restricted metric block is singular."""


class NotComplementary(GeometryError):
    """A subspace meets the chart center, so the chart is undefined."""


class TensorTooLarge(GeometryError):
    """A dense result would exceed the memory budget; nothing was allocated.

    needed and budget are in bytes.
    """

    def __init__(self, what: str, needed: int, budget: int):
        super().__init__(f"{what} needs {needed} bytes, over the dense budget of {budget} bytes")
        self.needed = needed
        self.budget = budget
