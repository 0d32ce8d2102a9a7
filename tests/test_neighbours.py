"""The graph helpers that read `Architecture.neighbours`, against the
adjacency-building versions they replaced, kept here as references."""

from random import Random

import pytest

from chainforge.core import (
    MAX_WIRES,
    Architecture,
    ArchKind,
    ChainNotFoundError,
    embed_chain,
)


def _max_degree(arch):
    return max(map(len, arch.neighbours))


def _ref_max_degree(n, edges):
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return max(deg, default=0)


def _ref_connected(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _ref_graph_search(arch, node_budget):
    """embed_chain's search on a graph, building its own neighbour lists."""
    n = arch.n_sites
    if n == 1:
        return [0]
    adj = {i: [] for i in range(n)}
    for a, b in arch.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=lambda w: (len(adj[w]), w))
    budget = node_budget
    for start in sorted(range(n), key=lambda v: (len(adj[v]), v)):
        path, used = [start], [False] * n
        used[start] = True
        untried = [iter(adj[start])]
        while untried:
            w = next((w for w in untried[-1] if not used[w]), None)
            if w is None:
                untried.pop()
                used[path.pop()] = False
                continue
            if budget <= 0:
                raise ChainNotFoundError(f"chain search exhausted its budget of {node_budget} expansions")
            budget -= 1
            used[w] = True
            path.append(w)
            if len(path) == n:
                return path
            untried.append(iter(adj[w]))
    raise ChainNotFoundError("architecture has no Hamiltonian path")


def _outcome(search, arch, budget):
    """The path found, or the type and message of the error raised."""
    try:
        return search(arch, budget)
    except ChainNotFoundError as exc:
        return (type(exc), str(exc))


def _check_graph(arch):
    assert _max_degree(arch) == _ref_max_degree(arch.n_sites, arch.edges)
    for budget in (3, 10, 10**6):
        assert _outcome(embed_chain, arch, budget) == _outcome(_ref_graph_search, arch, budget)


def _random_edges(rng, n):
    density = rng.random()
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]


def test_graph_helpers_match_references_on_random_graphs():
    rng = Random(2026)
    accepted = 0
    for _ in range(4000):
        n = rng.randint(1, 9)
        edges = _random_edges(rng, n)
        want_ok = n == 1 or _ref_connected(n, edges)
        try:
            arch = Architecture.graph(n, edges)
        except ValueError as exc:
            assert not want_ok and str(exc) == "graph architecture must be connected"
            continue
        assert want_ok
        accepted += 1
        _check_graph(arch)
    assert 1000 < accepted < 4000  # both decisions are exercised


def test_graph_helpers_match_references_on_a_long_path_and_a_disconnected_graph():
    n = MAX_WIRES
    _check_graph(Architecture.graph(n, [(i, i + 1) for i in range(n - 1)]))
    split = [(0, 1), (1, 2), (0, 2), (3, 4)]
    assert not _ref_connected(5, split)
    with pytest.raises(ValueError, match="^graph architecture must be connected$"):
        Architecture.graph(5, split)
    # the search and the triangle test on a graph the constructor would refuse
    _check_graph(Architecture(ArchKind.GRAPH, 5, frozenset(split)))


def test_neighbours_and_max_degree_of_chains_grids_and_graphs():
    assert Architecture.graph(4, [(2, 0), (3, 0), (1, 0)]).neighbours == ((1, 2, 3), (0,), (0,), (0,))
    for n in range(1, 6):
        assert _max_degree(Architecture.lnn(n)) == (2 if n > 2 else max(n - 1, 0))
    for rows, cols in ((1, 1), (1, 4), (2, 2), (3, 5), (4, 4)):
        grid = Architecture.grid(rows, cols)
        assert _max_degree(grid) == _ref_max_degree(grid.n_sites, grid.edges)
