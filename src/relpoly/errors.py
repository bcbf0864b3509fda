"""Shared exception types."""


class GraphFormatError(ValueError):
    """Malformed graph input: a bad graph6 string, edge list, fixture or
    graph file, or edges no graph can hold (a loop or duplicate in a simple
    graph, a label outside 0..n-1, a negative n, a multiplicity below 1)."""


class DimensionMismatchError(ValueError):
    """Two graphs that must share (n, m) do not."""


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph got a disconnected one."""


class ParameterError(ValueError):
    """A usage error: a bad command-line option or rational, or a parameter
    outside its range (p outside [0, 1], or (0, 1) on the Tutte route; k
    outside 1..n; trials below 1; a seed outside 0..2^64-1; an unknown
    order; an unwritable CSV path)."""


class EmptyClassError(ParameterError):
    """The class C(n, m) holds no connected graph: n < 1, or m outside
    n-1 .. n(n-1)/2."""


class BudgetError(RuntimeError):
    """A computation was refused because it exceeds its enumeration budget."""


class TableConsistencyError(RuntimeError):
    """A derived count table failed an internal invariant (e.g. row sums)."""
