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

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

MAX_VERTICES = 10**6


@dataclass(frozen=True)
class TilingSpec:
    """A {3,q} tiling grown to `depth` rings around one vertex."""

    q: int
    depth: int

    def __post_init__(self):
        if self.q < 3:
            raise ValueError("q must be at least 3")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


@dataclass(frozen=True, eq=False)
class TilingGraph:
    spec: TilingSpec
    rings: tuple[int, ...]  # ring index per vertex, vertex ids 0..n-1
    edges: tuple[tuple[int, int], ...]  # u < v, sorted


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


def ring_size_recurrence(q: int, depth: int) -> Iterator[int]:
    """Ring sizes by the parent-count recurrence (no graph construction).

    With a_d one-parent and b_d two-parent vertices on ring d:
      n_{d+1} = a_d (q-3) + b_d (q-4) - n_d,   b_{d+1} = n_d.
    """
    yield 1
    a, b = q, 0
    for _ in range(depth):
        n = a + b
        yield n
        a, b = a * (q - 3) + b * (q - 4) - 2 * n, n


def generate(spec: TilingSpec) -> TilingGraph:
    """Grow the tessellation to the requested depth with deterministic ids."""
    if spec.q < 6:
        raise ValueError(
            f"{{3,{spec.q}}} is spherical and closes up; generation requires q >= 6"
        )
    # `any` stops at the first running total past the bound
    if any(n > MAX_VERTICES for n in accumulate(ring_size_recurrence(spec.q, spec.depth))):
        raise ValueError(f"depth {spec.depth} would create more than {MAX_VERTICES} vertices")
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


def export_edges(graph: TilingGraph) -> str:
    """One 'u v' line per edge, u < v, sorted; stable across runs."""
    return "\n".join(f"{u} {v}" for u, v in graph.edges) + ("\n" if graph.edges else "")
