"""Small-scale exact references the tests compare the library against.

Nothing here runs at scale, and ``snpmux`` imports none of it:

* ``ref_coverage`` and ``ref_witnesses`` decide strong r-decodability
  with a per-probe count over ``ProbeSpace.primer_adjacency``, sharing
  no code with ``snpmux.decodability``.
* ``brute_force_max_decodable`` finds the maximum decodable pool subset
  of an instance.
* ``brute_force_mim`` finds the maximum induced matching of a
  ``snpmux.oracles.BipartiteGraph`` by trying every edge subset.
* ``weight`` and ``is_ctoken`` give a sequence's hybridization weight
  and test c-token membership straight from the definition.

``brute_force_max_decodable`` is a depth-first branch and bound. Pools go
in order, and each either gets one of its primers or is skipped. A child
is made only when ``solvers.first_fit``, the acceptance rule ``seq`` uses,
accepts the primer into a copy of the node's coverage state; more
primers only add coverage, so a rejected selection never recovers, and
backtracking returns to the node's own copy. A branch is cut when its
selected count plus the pools still to come cannot beat the best
selection found so far. ``cap`` (default 2,000,000) bounds the nodes
visited; past it, or past half of Python's recursion limit in pools, the
search raises ``SizeLimitError``. ``ref_witnesses``, which shares no code
with ``first_fit``, must accept the selection it returns. Random 25-pool
instances (2 primers of 10 nt, all four extensions, ``kmer:4``, seeds
1-3, r = 1 and 2) take 0.05 s for all six. The same settings at 30 pools
and r = 2, and at 40 pools and r = 1 (six instances, up to 268k nodes),
take 6.3-7.8 s in all on 2 CPUs with Python 3.11.7. The gap is optimum
minus heuristic size:

    | r | seq mean / max | minprimer mean / max | minprobe mean / max |
    |---|----------------|----------------------|---------------------|
    | 1 | 0.33 / 1       | 0.67 / 2             | 0.00 / 0            |
    | 2 | 3.67 / 5       | 3.33 / 5             | 2.33 / 3            |

``tests/test_acceptance.py::test_criterion_05_gaps_at_25_pools`` prints
this table; run it with ``-s``.
"""

import sys
from array import array
from itertools import combinations

from snpmux.decodability import DesignResult, SelectedPool
from snpmux.dnaseq import SequenceError, is_degenerate
from snpmux.solvers import first_fit

MIM_VERTEX_LIMIT = 24
DEFAULT_ENUMERATION_CAP = 2_000_000


class SizeLimitError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured cap."""


def ref_coverage(space, primers):
    """(N+ per primer, cover): cover[x] counts the primers whose extended
    products reach probe x, one dict increment per probe."""
    specs = []
    cover = {}
    for primer in primers:
        nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
        specs.append(nplus)
        for x in nplus + nminus:
            cover[x] = cover.get(x, 0) + 1
    return specs, cover


def ref_witnesses(primers, r, space):
    """Strong r-decodability: (True, the r lowest informative probe ids of
    each primer) when every primer keeps r probes of its N+ that no other
    primer reaches, else (False, None)."""
    specs, cover = ref_coverage(space, primers)
    witnesses = []
    for nplus in specs:
        own = [x for x in nplus if cover[x] == 1]
        if len(own) < r:
            return False, None
        witnesses.append(tuple(own[:r]))
    return True, witnesses


def weight(seq):
    """Hybridization weight: count of A/T bases plus twice the count of C/G."""
    if is_degenerate(seq):
        raise SequenceError("weight undefined for degenerate sequence %r" % (seq,))
    at = seq.count("A") + seq.count("T")
    return at + 2 * (len(seq) - at)


def is_ctoken(seq, c):
    """True iff seq has weight >= c and every proper suffix has weight < c.

    Suffix weights are monotone in length, so only the longest proper
    suffix needs checking.
    """
    if not seq:
        return False
    return weight(seq) >= c and weight(seq[1:]) < c


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
    (one int per probe of the space: uncovered, shared or a slot's own)
    and counts (coverage only grows, so no rejected selection recovers),
    and backtracking restores the node's own copy. A branch is cut when
    the selected count plus the pools still to come cannot beat the best
    selection found so far. The search visits at most cap nodes and
    recurses once per pool; ``ref_witnesses``, which shares no code with
    ``first_fit``, must accept its result.
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
            child = owner[:], counts[:]
            if first_fit(*child, r, nplus, nminus):
                search(i + 1, *child, chosen + [(i, a)])
        search(i + 1, owner, counts, chosen)

    # a dense owner map, all uncovered: the spaces searched here are tiny
    search(0, array("i", [0]) * space.size, [], [])
    primers = [pools[i].primers[a] for i, a in best]
    ok, witnesses = ref_witnesses(primers, r, space)
    if not ok:
        raise AssertionError("branch and bound disagrees with the reference checker")
    selected = tuple(SelectedPool(pools[i].id, a, w) for (i, a), w in zip(best, witnesses))
    return len(best), DesignResult(selected, fingerprint=instance.fingerprint)
