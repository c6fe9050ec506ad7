"""{3,q} tessellation graphs built ring by ring, plus curvature classification.

The construction grows BFS rings deterministically: every ring is a cycle;
a ring vertex with t parents gets q - 2 - t children, and cyclically
consecutive parents share exactly one child (which closes the triangle over
their ring edge).  That keeps every interior vertex at degree exactly q and
every interior edge on exactly two triangle faces.  Only p = 3 is supported,
and q >= 6: for q <= 5 the tessellation is spherical and closes up, which
this open-disk construction cannot represent.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 10**6


@dataclass(frozen=True)
class TilingSpec:
    p: int
    q: int
    depth: int

    def __post_init__(self):
        if self.p != 3:
            raise ValueError("only p = 3 tilings are supported")
        if self.q < 3:
            raise ValueError("q must be at least 3")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


@dataclass(frozen=True, eq=False)
class TilingGraph:
    spec: TilingSpec
    rings: tuple[int, ...]  # ring index per vertex, vertex ids 0..n-1
    edges: tuple[tuple[int, int], ...]  # u < v, sorted

    def neighbors(self, vertex: int) -> list[int]:
        out = []
        for u, v in self.edges:
            if u == vertex:
                out.append(v)
            elif v == vertex:
                out.append(u)
        return sorted(out)


def classify(p: int, q: int) -> str:
    """Euclidean, Hyperbolic or Spherical by the sign of (p-2)(q-2) - 4."""
    if p < 3 or q < 3:
        raise ValueError("p and q must be at least 3")
    curv = (p - 2) * (q - 2)
    if curv > 4:
        return "Hyperbolic"
    if curv == 4:
        return "Euclidean"
    return "Spherical"


def ring_size_recurrence(q: int, depth: int) -> list[int]:
    """Ring sizes by the parent-count recurrence (no graph construction).

    With a_d one-parent and b_d two-parent vertices on ring d:
      n_{d+1} = a_d (q-3) + b_d (q-4) - n_d,   b_{d+1} = n_d.
    """
    counts = [1]
    if depth == 0:
        return counts
    a, b = q, 0
    counts.append(q)
    for _ in range(2, depth + 1):
        n = a + b
        n_next = a * (q - 3) + b * (q - 4) - n
        a, b = n_next - n, n
        counts.append(n_next)
    return counts


def generate(spec: TilingSpec) -> TilingGraph:
    """Grow the tessellation to the requested depth with deterministic ids."""
    if spec.q < 6:
        raise ValueError(
            f"{{3,{spec.q}}} is spherical and closes up; generation requires q >= 6"
        )
    expected = sum(ring_size_recurrence(spec.q, spec.depth))
    if expected > MAX_VERTICES:
        raise ValueError(
            f"depth {spec.depth} would create {expected} vertices "
            f"(guard is {MAX_VERTICES})"
        )
    q = spec.q
    rings = [0]
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int) -> None:
        edges.append((u, v) if u < v else (v, u))

    if spec.depth == 0:
        return TilingGraph(spec=spec, rings=(0,), edges=())

    prev = list(range(1, q + 1))
    parents = {v: 1 for v in prev}
    rings.extend([1] * q)
    for v in prev:
        add_edge(0, v)
    for i in range(q):
        add_edge(prev[i], prev[(i + 1) % q])

    nxt = q + 1
    for d in range(2, spec.depth + 1):
        m = len(prev)
        new_ring: list[int] = []
        new_parents: dict[int, int] = {}
        for i, v in enumerate(prev):
            c = q - 2 - parents[v]
            for s in range(c):
                if s == 0 and i > 0:
                    w = new_ring[-1]  # shared with the previous parent
                    new_parents[w] += 1
                elif i == m - 1 and s == c - 1:
                    w = new_ring[0]  # wrap-around share closing the ring
                    new_parents[w] += 1
                else:
                    w = nxt
                    nxt += 1
                    new_ring.append(w)
                    new_parents[w] = 1
                    rings.append(d)
                add_edge(v, w)
        for i in range(len(new_ring)):
            add_edge(new_ring[i], new_ring[(i + 1) % len(new_ring)])
        prev, parents = new_ring, new_parents

    return TilingGraph(spec=spec, rings=tuple(rings), edges=tuple(sorted(edges)))


def ring_sizes(graph: TilingGraph) -> list[int]:
    counts = [0] * (graph.spec.depth + 1)
    for r in graph.rings:
        counts[r] += 1
    return counts


def unit_star(graph: TilingGraph, center_vertex: int) -> tuple[int, list[int]]:
    """Degree and neighbor list of a full-degree vertex (the model's cell).

    Boundary vertices (incomplete degree) are rejected.
    """
    nbrs = graph.neighbors(center_vertex)
    if len(nbrs) != graph.spec.q:
        raise ValueError(
            f"vertex {center_vertex} has degree {len(nbrs)} < q = {graph.spec.q} "
            "(boundary vertex)"
        )
    return graph.spec.q, nbrs


def export_edges(graph: TilingGraph) -> str:
    """One 'u v' line per edge, u < v, sorted; stable across runs."""
    return "\n".join(f"{u} {v}" for u, v in graph.edges) + ("\n" if graph.edges else "")
