"""The graph families under study.

Vertices are the residues 0..n-1.  In the unit-sum Cayley graph ("uacg")
distinct i and j are adjacent iff gcd(i + j, n) == 1; in the unitary Cayley
graph they are adjacent iff i - j is a unit mod n.  Complete graphs and
complements round out the zoo.  Adjacency matrices are dense 0/1 int8
arrays (one byte per entry), C-contiguous, symmetric with zero diagonal, and
read-only after construction; degree sequences are int64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numtheory import TRIAL_DIVISION_LIMIT, _check_int, euler_phi

__all__ = [
    "DENSE_ORDER_LIMIT",
    "FAMILIES",
    "FAMILY_COMPLETE",
    "FAMILY_UACG",
    "FAMILY_UNITARY_CAYLEY",
    "Graph",
    "GraphSpec",
    "build_graph",
    "build_uacg",
    "build_unitary_cayley",
    "complement",
    "complete",
    "edge_count",
    "parse_spec_label",
]

FAMILY_UACG = "uacg"
FAMILY_UNITARY_CAYLEY = "unitary-cayley"
FAMILY_COMPLETE = "complete"
FAMILIES = (FAMILY_UACG, FAMILY_UNITARY_CAYLEY, FAMILY_COMPLETE)

# Largest order a dense graph is built for: one n x n int8 adjacency takes
# n**2 bytes (16 MiB at this limit), and each float64 alpha matrix built from
# it 8*n**2 bytes (128 MiB).  Routes that need no dense matrix have no limit.
DENSE_ORDER_LIMIT = 4096


@dataclass(frozen=True)
class GraphSpec:
    """Which graph to build: a base family on n vertices, optionally complemented.

    n is an integer in 2..TRIAL_DIVISION_LIMIT for every family, the orders
    factorize accepts.  The complement flag nests at most one level by
    construction; complementing twice returns to the base family.
    """

    family: str
    n: int
    complement: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "n", _check_int(self.n, "n", 2, TRIAL_DIVISION_LIMIT))

    def label(self) -> str:
        return ("complement-" if self.complement else "") + self.family


def parse_spec_label(label: str, n: int) -> GraphSpec:
    """Inverse of GraphSpec.label."""
    comp = label.startswith("complement-")
    family = label.removeprefix("complement-")
    if family not in FAMILIES:
        raise ValueError(f"unknown family label {label!r}")
    return GraphSpec(family, n, comp)


@dataclass(frozen=True, eq=False)
class Graph:
    """A concrete graph: its spec, 0/1 adjacency, degree sequence and edge count."""

    spec: GraphSpec
    adjacency: np.ndarray
    degrees: np.ndarray
    m: int

    @property
    def n(self) -> int:
        return self.spec.n


def _finish(spec: GraphSpec, adjacency: np.ndarray) -> Graph:
    """The Graph of a C-contiguous int8 adjacency, checked 0/1, symmetric and
    with a zero diagonal; any other dtype is rejected rather than cast, so no
    value can wrap."""
    if adjacency.dtype != np.int8 or not adjacency.flags.c_contiguous:
        raise ValueError(f"adjacency must be C-contiguous int8, got {adjacency.dtype}")
    if adjacency.view(np.uint8).max() > 1:
        raise ValueError("adjacency must be 0/1")
    if not np.array_equal(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(adjacency) != 0):
        raise ValueError("adjacency must have a zero diagonal")
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    m = int(degrees.sum()) // 2
    adjacency.setflags(write=False)
    degrees.setflags(write=False)
    return Graph(spec=spec, adjacency=adjacency, degrees=degrees, m=m)


def _coprime_mask(n: int, length: int) -> np.ndarray:
    """mask[k] is gcd(k, n) == 1 for 0 <= k < length."""
    return np.gcd(np.arange(length), n) == 1


def build_uacg(n: int) -> Graph:
    """Unit-sum Cayley graph: i ~ j iff i != j and gcd(i + j, n) == 1."""
    spec = GraphSpec(FAMILY_UACG, n)
    # the Hankel window of the mask: entry [i, j] is mask[i + j]
    window = sliding_window_view(_coprime_mask(n, 2 * n - 1), n)
    adjacency = np.ascontiguousarray(window, dtype=np.int8)
    np.fill_diagonal(adjacency, 0)
    return _finish(spec, adjacency)


def build_unitary_cayley(n: int) -> Graph:
    """Unitary Cayley graph: i ~ j iff gcd(i - j mod n, n) == 1."""
    spec = GraphSpec(FAMILY_UNITARY_CAYLEY, n)
    # the Hankel window of mask[k] = gcd(k + 1, n) == 1, rows reversed: entry
    # [i, j] is gcd(n + j - i, n) == 1.  gcd(n, n) = n != 1 for n >= 2, so
    # the diagonal is already zero.
    window = sliding_window_view(_coprime_mask(n, 2 * n)[1:], n)
    adjacency = np.ascontiguousarray(window[::-1], dtype=np.int8)
    return _finish(spec, adjacency)


def complete(n: int) -> Graph:
    spec = GraphSpec(FAMILY_COMPLETE, n)
    adjacency = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(adjacency, 0)
    return _finish(spec, adjacency)


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set; complement(complement(g)) == g."""
    adjacency = np.subtract(1, g.adjacency, dtype=np.int8)
    np.fill_diagonal(adjacency, 0)
    spec = replace(g.spec, complement=not g.spec.complement)
    return _finish(spec, adjacency)


_BUILDERS = {
    FAMILY_UACG: build_uacg,
    FAMILY_UNITARY_CAYLEY: build_unitary_cayley,
    FAMILY_COMPLETE: complete,
}


def _check_dense_order(n: int, name: str = "n") -> int:
    """n; ValueError when the order n (called name) is above DENSE_ORDER_LIMIT."""
    if n > DENSE_ORDER_LIMIT:
        raise ValueError(
            f"{name}={n} exceeds the dense limit DENSE_ORDER_LIMIT={DENSE_ORDER_LIMIT}"
        )
    return n


def build_graph(spec: GraphSpec) -> Graph:
    """Dense graph for a spec; ValueError above DENSE_ORDER_LIMIT, before allocating."""
    _check_dense_order(spec.n)
    g = _BUILDERS[spec.family](spec.n)
    return complement(g) if spec.complement else g


def edge_count(spec: GraphSpec) -> int:
    """Edge count of the graph a spec describes, without building it."""
    n = spec.n
    if spec.family == FAMILY_COMPLETE:
        base = n * (n - 1) // 2
    elif spec.family == FAMILY_UNITARY_CAYLEY:
        base = n * euler_phi(n) // 2
    else:  # unit-sum Cayley: phi(n)-regular for even n, near-regular for odd n
        phi = euler_phi(n)
        base = n * phi // 2 if n % 2 == 0 else (n - 1) * phi // 2
    if spec.complement:
        return n * (n - 1) // 2 - base
    return base

