"""Exception types, and the index check, shared across the package."""


class TreelapError(Exception):
    """Base class for all treelap errors."""


class BadLabel(TreelapError):
    """A vertex label is outside the valid range 0..n-1."""


class DuplicateEdge(TreelapError):
    """The same unordered edge appears more than once."""


class CycleDetected(TreelapError):
    """The edge set contains a cycle (or a self-loop)."""


class Disconnected(TreelapError):
    """The edge set does not connect all vertices."""


class EdgeAbsent(TreelapError):
    """A requested edge is not present in the tree."""


class PendantEdge(TreelapError):
    """A pendant edge was supplied where a non-pendant edge is required."""


class BadParam(TreelapError):
    """A parameter violates an operation's precondition."""


def check_index(name: str, value, lo: int, hi: float) -> None:
    """Refuse an index that is not an int in lo..hi; a bool is not an index."""
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise BadParam(f"{name}={value!r} out of range {lo}..{hi}")
