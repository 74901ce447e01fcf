"""Exception types shared across the package."""


class LatcutError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LatcutError):
    pass


class EmptySet(LatcutError):
    """An H-description turned out to be infeasible."""


class WholeSpace(LatcutError):
    """A description places no constraint at all (the whole space)."""


class OriginNotInterior(LatcutError):
    """Polarity needs the origin strictly inside the body."""


class PointNotInterior(LatcutError):
    """An operation needs its reference point strictly inside a body."""


class NotSeparable(LatcutError):
    """No half-space separates the two bodies (their interiors meet)."""


class NotFullDimensional(LatcutError):
    """Operation defined only for full-dimensional bodies."""


class UnsupportedDimension(LatcutError):
    pass


class UnboundedEnumeration(LatcutError):
    """Lattice point enumeration asked for an infinite set."""


class NotPolytope(LatcutError):
    pass


class MuTooSmall(LatcutError):
    """Truncated-cone shrink needs the anchor at least a third of the way up."""


class WitnessOnBoundary(LatcutError):
    """A witness midpoint sits on the boundary, leaving no room to shrink."""


class HypothesisViolated(LatcutError):
    """An input hypothesis of a construction fails; carries which one."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"hypothesis {which} violated" + (f": {detail}" if detail else ""))


class NotLatticeFreeInput(LatcutError):
    """Certifies the input body was not lattice-free (0 outside the convex
    hull of its facet normals)."""


class OutOfRange(LatcutError):
    pass


class ParseError(LatcutError):
    """Invalid wire data; carries a best-effort byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class UnknownScenario(LatcutError):
    pass


class CertificateError(LatcutError):
    """A check on which a result depends failed: the claim named does not
    hold for the object the code built."""


def require(cond: bool, message: str) -> None:
    """Raise CertificateError(message) unless cond holds; unlike an assert,
    the check also runs under ``python -O``."""
    if not cond:
        raise CertificateError(message)
