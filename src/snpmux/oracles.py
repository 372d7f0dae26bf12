"""Exact reference solvers and the matching-to-design reduction.

These exist to check the greedy heuristics, not to run at scale:
``brute_force_max_decodable`` is a branch and bound over pool choices
(a child only where ``solvers.first_fit`` accepts, backtracking to a
saved copy, an independent final check), and ``brute_force_mim`` tries
every edge subset of a bipartite graph.
``reduce_matching_to_design`` maps a bipartite graph (max degree 3) to
a design instance over an explicit probe list such that maximum
induced matchings correspond exactly to maximum decodable pool subsets
at redundancy 1; it doubles as a hard-instance generator since the
design problem inherits the matching problem's inapproximability.

In the reduction, each right vertex v gets a distinct A/T word x_v (v in
binary, A=0, T=1); the primer of a left vertex u is its neighbors' words
joined by C separators, and every extension set is {C, G}. C/G never
occur inside any x_v, so windows crossing a separator or an extension
match nothing: the primer's spectrum is exactly its neighbor set and no
probe is reachable only through extensions. The probe list stores
reverse complements of the x_v so that probe ids equal right-vertex
indices.
"""

import sys
from dataclasses import dataclass
from itertools import combinations

from .decodability import DesignResult, SelectedPool, is_strongly_r_decodable
from .dnaseq import reverse_complement
from .instance import Pool, Primer, ProblemInstance
from .probespace import ExplicitSpace
from .solvers import first_fit

MIM_VERTEX_LIMIT = 24
DEFAULT_ENUMERATION_CAP = 2_000_000


class SizeLimitError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured cap."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on dense vertex sets 0..n_left-1 and 0..n_right-1."""

    n_left: int
    n_right: int
    edges: tuple

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("vertex counts must be non-negative")
        edges = tuple(sorted((int(u), int(v)) for u, v in self.edges))
        for u, v in edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", edges)


def brute_force_mim(graph):
    """Maximum induced matching size, by descending exhaustive search.

    An edge subset is an induced matching when its endpoints are all
    distinct and the graph has no edge between endpoints of two different
    chosen edges. Limited to |U| + |V| <= 24 vertices.
    """
    if graph.n_left + graph.n_right > MIM_VERTEX_LIMIT:
        raise SizeLimitError(
            "graph has %d vertices; induced matching search is capped at %d"
            % (graph.n_left + graph.n_right, MIM_VERTEX_LIMIT)
        )
    edges = graph.edges
    edge_set = set(edges)
    upper = min(graph.n_left, graph.n_right, len(edges))
    for k in range(upper, 0, -1):
        for combo in combinations(edges, k):
            if _is_induced_matching(combo, edge_set):
                return k
    return 0


def _is_induced_matching(chosen, edge_set):
    for i in range(len(chosen)):
        u1, v1 = chosen[i]
        for j in range(i + 1, len(chosen)):
            u2, v2 = chosen[j]
            if u1 == u2 or v1 == v2:
                return False
            if (u1, v2) in edge_set or (u2, v1) in edge_set:
                return False
    return True


def brute_force_max_decodable(instance, cap=DEFAULT_ENUMERATION_CAP):
    """Exact maximum decodable subset: (size, witnessing DesignResult).

    Depth-first branch and bound over the pools in order: each pool gets
    one of its primers or is skipped. A child is made only when
    ``first_fit`` accepts the primer into a copy of the node's owner map
    and counts (coverage only grows, so no rejected selection recovers),
    and backtracking restores the node's own copy. A branch is cut when
    the selected count plus the pools still to come cannot beat the best
    selection found so far. The search visits at most cap nodes and
    recurses once per pool; ``is_strongly_r_decodable``, which shares no
    code with ``first_fit``, must accept its result.
    """
    pools = instance.pools
    if len(pools) > sys.getrecursionlimit() // 2:
        raise SizeLimitError("%d pools exceed the search depth limit" % len(pools))
    r = instance.redundancy
    space = instance.space
    adjacency = [[space.primer_adjacency(p.sequence, p.extensions) for p in pool.primers]
                 for pool in pools]
    best = []  # (pool index, primer index) per selected pool
    nodes = 0

    def search(i, owner, counts, chosen):
        nonlocal best, nodes
        nodes += 1
        if nodes > cap:
            raise SizeLimitError("search exceeded %d nodes" % cap)
        if len(chosen) > len(best):
            best = chosen
        if len(chosen) + len(pools) - i <= len(best):
            return
        for a, (nplus, nminus) in enumerate(adjacency[i]):
            child = owner.copy(), counts.copy()
            if first_fit(*child, r, nplus, nminus):
                search(i + 1, *child, chosen + [(i, a)])
        search(i + 1, owner, counts, chosen)

    search(0, {}, [], [])
    primers = [pools[i].primers[a] for i, a in best]
    ok, witnesses = is_strongly_r_decodable(primers, r, space)
    if not ok:
        raise AssertionError("branch and bound disagrees with decodability checker")
    selected = tuple(SelectedPool(pools[i].id, a, w) for (i, a), w in zip(best, witnesses))
    return len(best), DesignResult(selected, fingerprint=instance.fingerprint)


def reduce_matching_to_design(graph):
    """Encode induced matchings of a bipartite graph as a design instance.

    Requires every left vertex to have degree 1-3 and every right vertex
    degree >= 1. The returned instance has one single-primer pool per
    left vertex, redundancy 1, and probe ids equal to right-vertex
    indices; its maximum decodable subset size equals the graph's
    maximum induced matching size. Each probe is as long as a right-vertex word.
    """
    neighbors = [[] for _ in range(graph.n_left)]
    deg_right = [0] * graph.n_right
    for u, v in graph.edges:  # sorted, so every list ascends
        neighbors[u].append(v)
        deg_right[v] += 1
    for u, nbrs in enumerate(neighbors):
        if not 1 <= len(nbrs) <= 3:
            raise ValueError("left vertex %d has degree %d; need 1-3" % (u, len(nbrs)))
    for v, d in enumerate(deg_right):
        if d < 1:
            raise ValueError("right vertex %d is isolated" % v)

    bits = max(1, (graph.n_right - 1).bit_length())
    words = ["".join("T" if (v >> (bits - 1 - t)) & 1 else "A" for t in range(bits))
             for v in range(graph.n_right)]
    space = ExplicitSpace([reverse_complement(w) for w in words], descriptor="list:<reduction>")
    pools = []
    for u, nbrs in enumerate(neighbors):
        seq = "C".join(words[v] for v in nbrs)
        pools.append(Pool(id=u, primers=(Primer(seq, "CG", "."),)))
    return ProblemInstance(pools, space, redundancy=1)
