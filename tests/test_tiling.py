import pytest

from oracle_utils import ring_counts_recurrence

from qetsim.tiling import (
    TilingSpec,
    classify,
    export_edges,
    generate,
    ring_size_recurrence,
    ring_sizes,
    unit_star,
)


def adjacency(graph):
    adj = {v: set() for v in range(len(graph.rings))}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


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
    g = generate(TilingSpec(3, 6, 1))
    assert len(g.rings) == 7
    assert len(g.edges) == 12  # 6 spokes + 6 ring edges


def test_heptagonal_depth_one():
    g = generate(TilingSpec(3, 7, 1))
    assert len(g.rings) == 8
    assert len(g.edges) == 14  # 7 spokes + closed 7-ring


def test_depth_zero_is_single_vertex():
    g = generate(TilingSpec(3, 8, 0))
    assert len(g.rings) == 1
    assert g.edges == ()
    assert ring_sizes(g) == [1]


@pytest.mark.parametrize("q", [6, 7, 8, 10])
def test_ring_sizes_match_independent_recurrence(q):
    depth = 6 if q < 10 else 5
    g = generate(TilingSpec(3, q, depth))
    assert ring_sizes(g) == ring_counts_recurrence(q, depth)
    assert ring_size_recurrence(q, depth) == ring_counts_recurrence(q, depth)


def test_hexagonal_rings_are_six_d():
    g = generate(TilingSpec(3, 6, 7))
    assert ring_sizes(g) == [1] + [6 * d for d in range(1, 8)]


def test_known_hyperbolic_ring_counts():
    assert ring_size_recurrence(7, 6) == [1, 7, 21, 56, 147, 385, 1008]
    assert ring_size_recurrence(10, 6) == [1, 10, 60, 350, 2040, 11890, 69300]


def test_hyperbolic_growth_beats_euclidean():
    hyp = sum(ring_size_recurrence(7, 5))
    euc = sum(ring_size_recurrence(6, 5))
    assert hyp > 2 * euc


@pytest.mark.parametrize("q", [6, 7, 10])
def test_interior_degree_invariant(q):
    depth = 3
    g = generate(TilingSpec(3, q, depth))
    adj = adjacency(g)
    for v in range(len(g.rings)):
        if g.rings[v] < depth:
            assert len(adj[v]) == q, (q, v)
        else:
            assert len(adj[v]) <= q


@pytest.mark.parametrize("q", [6, 7, 10])
def test_triangle_face_invariant(q):
    # every edge not on the outermost cycle closes exactly two triangles;
    # outermost-ring cycle edges close exactly one
    depth = 3
    g = generate(TilingSpec(3, q, depth))
    adj = adjacency(g)
    for u, v in g.edges:
        shared = len(adj[u] & adj[v])
        if g.rings[u] == depth and g.rings[v] == depth:
            assert shared == 1, (u, v)
        else:
            assert shared == 2, (u, v)


def test_connected():
    g = generate(TilingSpec(3, 7, 4))
    adj = adjacency(g)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == len(g.rings)


def test_deterministic_bytes_and_roundtrip():
    a = export_edges(generate(TilingSpec(3, 7, 3)))
    b = export_edges(generate(TilingSpec(3, 7, 3)))
    assert a == b
    lines = a.strip().splitlines()
    edges = tuple(tuple(int(v) for v in line.split()) for line in lines)
    assert edges == generate(TilingSpec(3, 7, 3)).edges
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
    assert all(int(u) < int(v) for u, v in (line.split() for line in lines))


def test_unit_star():
    g = generate(TilingSpec(3, 6, 2))
    q, nbrs = unit_star(g, 0)
    assert q == 6 and nbrs == [1, 2, 3, 4, 5, 6]
    g10 = generate(TilingSpec(3, 10, 1))
    assert unit_star(g10, 0)[0] == 10
    with pytest.raises(ValueError):
        unit_star(g10, 3)  # outermost ring vertex is incomplete


def test_guards():
    with pytest.raises(ValueError):
        generate(TilingSpec(3, 5, 2))  # spherical
    with pytest.raises(ValueError):
        TilingSpec(4, 6, 2)  # only p=3
    with pytest.raises(ValueError):
        generate(TilingSpec(3, 10, 12))  # vertex-count guard
