from collections import Counter

import pytest

from oracle_utils import ring_counts_recurrence

import qetsim.tiling
from qetsim.tiling import classify, export_edges, generate, ring_sizes


def adjacency(edges):
    adj = {0: set()}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def bfs_rings(edges):
    """Each vertex's ring, read as its BFS distance to vertex 0 over the
    edge list, not from any label the generator wrote."""
    adj = adjacency(edges)
    ring = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in ring:
                    ring[w] = ring[v] + 1
                    nxt.append(w)
        frontier = nxt
    return ring


def bfs_layer_sizes(edges):
    """The number of vertices at each BFS distance from vertex 0."""
    counts = Counter(bfs_rings(edges).values())
    return [counts[d] for d in range(len(counts))]


# --- classification ----------------------------------------------------------

@pytest.mark.parametrize(
    "p,q,want",
    [(3, 6, "Euclidean"), (3, 7, "Hyperbolic"), (3, 10, "Hyperbolic"),
     (3, 5, "Spherical"), (4, 4, "Euclidean"), (5, 4, "Hyperbolic")],
)
def test_classify(p, q, want):
    assert classify(p, q) == want


def test_classify_rejects_bad_args():
    with pytest.raises(ValueError):
        classify(2, 6)


# --- generation --------------------------------------------------------------

def test_hexagonal_depth_one():
    edges = tuple(generate(6, 1))
    assert len(adjacency(edges)) == 7
    assert len(edges) == 12  # 6 spokes + 6 ring edges


def test_heptagonal_depth_one():
    edges = tuple(generate(7, 1))
    assert len(adjacency(edges)) == 8
    assert len(edges) == 14  # 7 spokes + closed 7-ring


def test_depth_zero_is_single_vertex():
    assert tuple(generate(8, 0)) == ()
    assert ring_sizes(8, 0) == [1]


@pytest.mark.parametrize("q", [6, 7, 8, 10])
def test_ring_sizes_match_independent_recurrence(q):
    depth = 6 if q < 10 else 5
    edges = tuple(generate(q, depth))
    rings = bfs_rings(edges)
    layers = bfs_layer_sizes(edges)
    assert layers == ring_counts_recurrence(q, depth)
    assert ring_sizes(q, depth) == layers
    # the documented id layout: ring d is the next layers[d] ids after ring d - 1
    first = 0
    for d, n in enumerate(layers):
        assert sorted(v for v, r in rings.items() if r == d) == list(range(first, first + n))
        first += n


def test_hexagonal_rings_are_six_d():
    assert bfs_layer_sizes(generate(6, 7)) == [1] + [6 * d for d in range(1, 8)]


def test_known_hyperbolic_ring_counts():
    assert ring_sizes(7, 6) == [1, 7, 21, 56, 147, 385, 1008]
    assert ring_sizes(10, 6) == [1, 10, 60, 350, 2040, 11890, 69300]


def test_hyperbolic_growth_beats_euclidean():
    hyp = sum(ring_sizes(7, 5))
    euc = sum(ring_sizes(6, 5))
    assert hyp > 2 * euc


@pytest.mark.parametrize("q", [6, 7, 10])
def test_interior_degree_invariant(q):
    depth = 3
    edges = tuple(generate(q, depth))
    adj = adjacency(edges)
    for v, ring in bfs_rings(edges).items():
        if ring < depth:
            assert len(adj[v]) == q, (q, v)
        else:
            assert len(adj[v]) <= q


@pytest.mark.parametrize("q", [6, 7, 10])
def test_triangle_face_invariant(q):
    # every edge not on the outermost cycle closes exactly two triangles;
    # outermost-ring cycle edges close exactly one
    depth = 3
    edges = tuple(generate(q, depth))
    adj = adjacency(edges)
    rings = bfs_rings(edges)
    for u, v in edges:
        shared = len(adj[u] & adj[v])
        if rings[u] == depth and rings[v] == depth:
            assert shared == 1, (u, v)
        else:
            assert shared == 2, (u, v)


def test_connected():
    edges = tuple(generate(7, 4))
    assert len(bfs_rings(edges)) == sum(ring_sizes(7, 4)) == len(adjacency(edges))


def test_deterministic_bytes_and_roundtrip():
    a = "".join(export_edges(generate(7, 3)))
    b = "".join(export_edges(generate(7, 3)))
    assert a == b
    lines = a.strip().splitlines()
    edges = tuple(tuple(int(v) for v in line.split()) for line in lines)
    assert edges == tuple(generate(7, 3))
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
    assert all(int(u) < int(v) for u, v in (line.split() for line in lines))


def test_edges_export_in_chunks(monkeypatch):
    edges = tuple(generate(7, 3))
    monkeypatch.setattr(qetsim.tiling, "EXPORT_CHUNK_EDGES", 5)
    chunks = list(export_edges(edges))
    assert [chunk.count("\n") for chunk in chunks] == [
        min(5, len(edges) - start) for start in range(0, len(edges), 5)
    ]
    assert "".join(chunks) == "\n".join(f"{u} {v}" for u, v in edges) + "\n"
    assert list(export_edges(())) == []


def test_unit_star():
    # the model's cell: a full-degree vertex and its q neighbours
    assert sorted(adjacency(generate(6, 2))[0]) == [1, 2, 3, 4, 5, 6]
    g10 = adjacency(generate(10, 1))
    assert len(g10[0]) == 10
    assert len(g10[3]) < 10  # outermost ring vertex is incomplete


def test_guards():
    with pytest.raises(ValueError):
        generate(5, 2)  # spherical
    with pytest.raises(ValueError):
        generate(10, 12)  # vertex-count guard
    # the guard stops counting at its bound: a ring count past 10^4300
    # cannot even be printed
    with pytest.raises(ValueError, match="would create more than 1000000 vertices"):
        generate(7, 30000)
