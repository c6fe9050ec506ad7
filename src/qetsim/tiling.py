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

from collections.abc import Iterable, Iterator
from itertools import islice

MAX_VERTICES = 10**6
EXPORT_CHUNK_EDGES = 1 << 16


def classify(p: int, q: int) -> str:
    """Euclidean, Hyperbolic or Spherical by the sign of (p-2)(q-2) - 4."""
    for name, value in (("p", p), ("q", q)):
        if value < 3:
            raise ValueError(f"{name} must be at least 3, got {value}")
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


def generate(q: int, depth: int) -> Iterator[tuple[int, int]]:
    """The tiling's edges (u, v), u < v, in sorted order, as an iterator.

    Vertex 0 is the centre, and ring d holds the next ring_sizes(q, depth)[d]
    ids, in cycle order.  Each parent's children are a contiguous run of the
    next ring; consecutive parents share the end of a run, and the last run
    wraps to the ring's first child.  A run's first child has two parents.
    The arguments are checked at the call; the edges are then yielded ring
    by ring, holding the child counts of two rings at a time.
    """
    return _sorted_edges(q, ring_sizes(q, depth))


def _sorted_edges(q: int, sizes: list[int]) -> Iterator[tuple[int, int]]:
    """Every vertex's larger neighbours, in id order: ring d's ids are
    contiguous and below every child id, so they are its ring successor, the
    ring's last vertex (for the ring's first vertex only), then its children,
    the first child of the next ring first where the last run wraps to it."""
    if len(sizes) == 1:  # depth 0: the centre alone, and ring_sizes leaves q unbounded
        return
    yield from ((0, v) for v in range(1, q + 1))
    first, kids = 1, [q - 3] * q  # children per ring vertex; ring 1's parent is 0
    for size, nxt in zip(sizes[1:], sizes[2:] + [0]):
        child = first + size  # the next ring's first id
        next_kids, start = [q - 3] * nxt, 0
        for v, c in zip(range(first, child), kids):
            if v < child - 1:
                yield v, v + 1
            if v == first:
                yield v, child - 1
            if nxt:
                if start + c > nxt:  # the last run wraps to the next ring's first child
                    yield v, child
                yield from ((v, w) for w in range(child + start, child + min(start + c, nxt)))
                next_kids[start] = q - 4
                start += c - 1
        first, kids = child, next_kids


def export_edges(edges: Iterable[tuple[int, int]]) -> Iterator[str]:
    """One 'u v' line per edge, in the order given; stable across runs.
    Yields the text EXPORT_CHUNK_EDGES lines at a time, so it is never held
    whole."""
    edges = iter(edges)
    while chunk := "".join(f"{u} {v}\n" for u, v in islice(edges, EXPORT_CHUNK_EDGES)):
        yield chunk
