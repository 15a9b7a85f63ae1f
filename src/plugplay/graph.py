"""Undirected communication graphs.

A :class:`Graph` is an immutable value: sorted integer node ids plus a
set of weighted undirected edges.  Matrix index of a node is its
position in sorted id order, so agents keep their ids across
join/leave events while matrices stay dense and contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "adjacency",
    "laplacian",
    "lambda2",
    "is_connected",
    "r_matrix",
    "mohar_bound",
]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph over integer node ids (no self-loops)."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        weights: Iterable[float] | None = None,
    ) -> "Graph":
        node_list = [int(n) for n in nodes]
        node_tuple = tuple(sorted(set(node_list)))
        if len(node_tuple) != len(node_list):
            raise ValueError("duplicate node ids")
        node_set = set(node_tuple)
        norm = []
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if i not in node_set or j not in node_set:
                raise ValueError(f"edge ({i},{j}) references unknown node")
            norm.append((min(i, j), max(i, j)))
        if weights is None:
            w = [1.0] * len(norm)
        else:
            w = [float(x) for x in weights]
            if len(w) != len(norm):
                raise ValueError("one weight per edge required")
            if any(x <= 0 for x in w):
                raise ValueError("edge weights must be positive")
        order = sorted(range(len(norm)), key=lambda k: norm[k])
        norm_sorted = tuple(norm[k] for k in order)
        if len(set(norm_sorted)) != len(norm_sorted):
            raise ValueError("duplicate edges")
        return cls(node_tuple, norm_sorted, tuple(w[k] for k in order))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node: int) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise KeyError(f"node {node} not in graph") from None

    def neighbors(self, node: int) -> tuple[int, ...]:
        out = []
        for (i, j) in self.edges:
            if i == node:
                out.append(j)
            elif j == node:
                out.append(i)
        return tuple(sorted(out))

    # --- functional edits used by the scenario runner ---

    def with_node(self, node: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """New graph with `node` added along with the given incident edges."""
        if node in self.nodes:
            raise ValueError(f"node {node} already present")
        new_edges = [tuple(e) for e in edges]
        return Graph.from_edges(
            self.nodes + (node,),
            list(self.edges) + new_edges,
            list(self.weights) + [1.0] * len(new_edges),
        )

    def without_node(self, node: int) -> "Graph":
        """New graph with `node` and all its incident edges removed."""
        if node not in self.nodes:
            raise ValueError(f"node {node} not present")
        keep = [(e, w) for e, w in zip(self.edges, self.weights) if node not in e]
        return Graph.from_edges(
            tuple(x for x in self.nodes if x != node),
            [e for e, _ in keep],
            [w for _, w in keep],
        )

    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        new_edges = [tuple(e) for e in edges]
        return Graph.from_edges(
            self.nodes,
            list(self.edges) + new_edges,
            list(self.weights) + [1.0] * len(new_edges),
        )

    def without_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        drop = {(min(i, j), max(i, j)) for i, j in edges}
        keep = [(e, w) for e, w in zip(self.edges, self.weights) if e not in drop]
        return Graph.from_edges(self.nodes, [e for e, _ in keep], [w for _, w in keep])

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """Induced subgraph on the given node subset."""
        keep_nodes = set(nodes)
        unknown = keep_nodes - set(self.nodes)
        if unknown:
            raise ValueError(f"unknown nodes {sorted(unknown)}")
        keep = [
            (e, w)
            for e, w in zip(self.edges, self.weights)
            if e[0] in keep_nodes and e[1] in keep_nodes
        ]
        return Graph.from_edges(sorted(keep_nodes), [e for e, _ in keep], [w for _, w in keep])


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric adjacency matrix in sorted-id order."""
    a = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges, g.weights):
        ii, jj = g.index(i), g.index(j)
        a[ii, jj] = w
        a[jj, ii] = w
    return a


# Repeat reads come within one run interval or one suite instance; more
# entries only keep old random graphs alive and fragment small-object memory.
@lru_cache(maxsize=16)
def _laplacian_cached(g: Graph) -> np.ndarray:
    a = adjacency(g)
    lap = np.diag(a.sum(axis=1)) - a
    lap.setflags(write=False)
    return lap


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A (symmetric PSD, L 1 = 0).

    The returned array is cached and read-only; copy before mutating.
    """
    return _laplacian_cached(g)


def lambda2(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity)."""
    if g.n < 2:
        raise ValueError("lambda2 requires at least 2 nodes")
    w = np.linalg.eigvalsh(laplacian(g))
    return float(w[1])


def is_connected(g: Graph) -> bool:
    """Connectivity by breadth-first search."""
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return True
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def r_matrix(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal complement of 1_N that diagonalizes the Laplacian.

    Returns (R, Lambda_plus) with 1^T R = 0, R^T R = I, R^T L R =
    Lambda_plus (diagonal, nonzero Laplacian eigenvalues ascending).
    R comes from the symmetric eigendecomposition of L; each column's
    sign is fixed by making its first nonzero entry positive, for
    determinism.
    """
    if not is_connected(g):
        raise ValueError("r_matrix requires a connected graph")
    if g.n < 2:
        raise ValueError("r_matrix requires at least 2 nodes")
    w, v = np.linalg.eigh(laplacian(g))
    r = v[:, 1:].copy()
    for k in range(r.shape[1]):
        nonzero = np.nonzero(np.abs(r[:, k]) > 1e-12)[0]
        if nonzero.size and r[nonzero[0], k] < 0:
            r[:, k] = -r[:, k]
    return r, np.diag(w[1:])


def mohar_bound(n: int) -> float:
    """Lower bound 4/N^2 on lambda2 of a connected unweighted graph."""
    if n < 2:
        raise ValueError("bound defined for N >= 2")
    return 4.0 / n**2
