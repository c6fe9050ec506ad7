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

MAX_VERTICES = 10**6


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


def ring_sizes(q: int, depth: int) -> list[int]:
    """Ring sizes 0..depth by the parent-count recurrence, without a graph.

    With a_d one-parent and b_d two-parent vertices on ring d:
      n_{d+1} = a_d (q-3) + b_d (q-4) - n_d,   b_{d+1} = n_d.
    """
    if q < 3:
        raise ValueError("q must be at least 3")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if q < 6:
        raise ValueError(f"{{3,{q}}} is spherical and closes up; generation requires q >= 6")
    sizes, total = [1], 1
    a, b = q, 0
    for _ in range(depth):
        n = a + b
        total += n
        # stop at the first running total past the bound
        if total > MAX_VERTICES:
            raise ValueError(f"depth {depth} would create more than {MAX_VERTICES} vertices")
        sizes.append(n)
        a, b = a * (q - 3) + b * (q - 4) - 2 * n, n
    return sizes


def generate(q: int, depth: int) -> tuple[tuple[int, int], ...]:
    """The tiling's edges (u, v), u < v, sorted.

    Vertex 0 is the centre, and ring d holds the next ring_sizes(q, depth)[d]
    ids, in cycle order.  Each parent's children are a contiguous run of the
    next ring; consecutive parents share the end of a run, and the last run
    wraps to the ring's first child.  A run's first child has two parents.
    """
    sizes = ring_sizes(q, depth)
    ring = list(range(1, q + 1)) if depth else []
    kids = [q - 3] * len(ring)  # children per ring vertex; ring 1's parent is 0
    edges = [(0, v) for v in ring]
    for d in range(1, depth + 1):
        edges += zip(ring, ring[1:])
        edges.append((ring[0], ring[-1]))
        if d == depth:
            break
        nxt = list(range(ring[-1] + 1, ring[-1] + 1 + sizes[d + 1]))
        nxt.append(nxt[0])
        next_kids = [q - 3] * sizes[d + 1]
        start = 0
        for v, c in zip(ring, kids):
            edges += [(v, w) for w in nxt[start:start + c]]
            next_kids[start] = q - 4
            start += c - 1
        ring, kids = nxt[:-1], next_kids
    edges.sort()
    return tuple(edges)


def export_edges(edges: tuple[tuple[int, int], ...]) -> str:
    """One 'u v' line per edge, u < v, sorted; stable across runs."""
    return "\n".join(f"{u} {v}" for u, v in edges) + ("\n" if edges else "")
