"""Shared exception types."""


class GraphFormatError(ValueError):
    """Malformed graph input (graph6 string, edge-list text, bad fixture)."""


class DimensionMismatchError(ValueError):
    """Two graphs that must share (n, m) do not."""


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph got a disconnected one."""


class EmptyClassError(ValueError):
    """The class C(n, m) holds no connected graph: n < 1, or m outside
    n-1 .. n(n-1)/2."""


class BudgetError(RuntimeError):
    """A computation was refused because it exceeds its enumeration budget."""


class TableConsistencyError(RuntimeError):
    """A derived count table failed an internal invariant (e.g. row sums)."""
