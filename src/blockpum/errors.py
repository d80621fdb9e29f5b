"""Exception and warning types shared across the package, and how warnings are raised."""

import sys
import warnings


class BlockPumError(Exception):
    """Base class for all blockpum errors."""


class DegenerateInput(BlockPumError):
    """Input points are affinely dependent (collinear/coplanar), no hull exists."""


class EmptyReduction(BlockPumError):
    """No point survived the reduction to the domain."""


class PointOutsideBox(BlockPumError):
    """A point lies outside the bounding box beyond tolerance."""


class SupportExceedsNeighborhood(BlockPumError):
    """Kernel support is wider than a block, so the 3^M neighborhood cannot
    guarantee complete range-search results."""


class InsufficientCoverage(BlockPumError):
    """Some evaluation point belongs to no subdomain that contains data."""


class NoActiveSubdomain(BlockPumError):
    """A query point lies in no subdomain of the covering."""


class SingularLocalSystem(BlockPumError):
    """A local interpolation matrix could not be factorized."""


class LengthMismatch(BlockPumError):
    """Paired sequences have different lengths."""


class DegenerateRatio(BlockPumError):
    """Convergence-rate inputs make the rate undefined."""


class SameBasin(BlockPumError):
    """Both bracket endpoints flow to the same equilibrium."""


class EmptySubdomainPruned(UserWarning):
    """A subdomain containing no data sites was dropped from the covering."""


class KernelSupportTooSmall(UserWarning):
    """Every local kernel matrix is diagonal: the kernel support is at or
    below every distance between two members of a subdomain, so the
    interpolant is zero wherever no data site lies within the support."""


def warn_at_caller(message: str, category: type) -> None:
    """Raise a warning attributed to the first stack frame outside this package.

    The public entry points reach the same warning through different
    numbers of package frames, so no fixed stacklevel names the caller's
    line for all of them.
    """
    root = __name__.partition(".")[0]
    frame = sys._getframe(1)
    level = 2
    while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == root:
        frame = frame.f_back
        level += 1
    warnings.warn(message, category, stacklevel=level)
