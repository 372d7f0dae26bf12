"""Greedy selection of maximum decodable pool subsets.

Three heuristics, all returning designs that pass independent
verification by construction:

* ``seq``: scan pools in order and keep a pool whenever its first
  acceptable primer leaves every selection with >= r informative probes.
* ``minprimer``: repeatedly select a minimum-degree live primer from the
  hybridization graph, certify it with its r smallest-degree spectrum
  probes, and remove every primer that could mask those witnesses.
* ``minprobe``: like minprimer, but first choose a minimum-degree probe
  and represent it by its minimum-degree unextended primer, favoring
  sparsely contested regions of the array.

minprimer and minprobe are one loop over a binary heap of (key, vertex)
pairs packed into single ints. Degrees only decrease, so every decrease
pushes a fresh entry and pops skip dead or stale ones. The heap yields
the smallest live (key, vertex): ties always break toward the lowest
vertex, which is the lowest primer index or probe id, so every run is
deterministic.

The removal rules maintain two invariants on the live graph: a primer
stays only while it has >= r live unextended-spectrum probes, and a
probe stays only while some live primer reaches it unextended. Both are
one rule over the graph's shared vertex space: a vertex stays while its
live unextended degree is at least its side's floor.
"""

import logging
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .decodability import DesignResult, SelectedPool
from .instance import build_graph

logger = logging.getLogger(__name__)

ALGORITHMS = ("seq", "minprimer", "minprobe")
DEGREE_MODES = ("total", "positive")
_SHARED = -1  # sequential_greedy: a covered probe informative for nobody


@dataclass(frozen=True)
class SolverConfig:
    """Solver choice plus how vertex degree is counted.

    degree_mode "total" counts both spectrum and extension-only edges
    when picking minimum-degree vertices; "positive" counts only the
    unextended-spectrum side. It affects minprimer/minprobe only.
    """

    algorithm: str = "seq"
    degree_mode: str = "total"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("algorithm must be one of %s, got %r" % (ALGORITHMS, self.algorithm))
        if self.degree_mode not in DEGREE_MODES:
            raise ValueError("degree_mode must be one of %s, got %r" % (DEGREE_MODES, self.degree_mode))


def solve(instance, config=None):
    """Run the configured solver on an instance."""
    config = config or SolverConfig()
    if config.algorithm == "seq":
        return sequential_greedy(instance)
    return _min_degree_greedy(instance, config.algorithm == "minprobe",
                              config.degree_mode == "positive")


def sequential_greedy(instance):
    """First-fit scan: keep a pool if some primer of it fits the selection.

    A candidate is accepted when it has >= r probes no selected primer's
    extended products reach, and accepting it leaves every earlier
    selection with >= r informative probes. One map holds the coverage:
    ``owner`` sends every covered probe to the slot it is informative for
    (covered once, unextended) or to ``_SHARED`` (covered twice, or once
    only through an extension). Uncovered probes are absent.
    """
    space = instance.space
    r = instance.redundancy
    owner = {}  # covered probe id -> owning slot, or _SHARED
    counts = []  # informative probes per selection slot
    chosen = []  # (pool_id, primer_index, sorted unextended spectrum)
    pruned_empty = 0
    for pool in instance.pools:
        for primer_index, primer in enumerate(pool.primers):
            nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
            if not nplus:
                pruned_empty += 1
                continue
            gain = sum(1 for x in nplus if x not in owner)
            if gain < r:
                continue
            # would any earlier selection drop below r informative probes?
            loss = {}
            for x in nplus + nminus:
                slot = owner.get(x, _SHARED)
                if slot != _SHARED:
                    loss[slot] = loss.get(slot, 0) + 1
            if any(counts[slot] - lost < r for slot, lost in loss.items()):
                continue
            for slot, lost in loss.items():
                counts[slot] -= lost
            slot = len(chosen)
            for x in nplus:
                owner[x] = _SHARED if x in owner else slot
            for x in nminus:
                owner[x] = _SHARED
            counts.append(gain)
            chosen.append((pool.id, primer_index, nplus))
            break
    selected = []
    for slot, (pool_id, primer_index, nplus) in enumerate(chosen):
        own = [x for x in nplus if owner[x] == slot][:r]
        selected.append(SelectedPool(pool_id, primer_index, tuple(own)))
    return DesignResult(tuple(selected), fingerprint=instance.fingerprint,
                        pruned_empty=pruned_empty)


def _cascade(g, stack, push_p=None, push_x=None, positive=False):
    """Delete the vertices on the stack until the degree invariants hold again.

    Deleting a vertex lowers its live neighbours' degrees, and a
    neighbour whose live unextended degree falls below its floor is
    deleted in turn: r for a primer (the neighbour of a deleted probe),
    1 for a probe (the neighbour of a deleted primer). Already-dead
    vertices are skipped, so duplicates are harmless. push_p/push_x, when
    given, receive every live primer/probe vertex whose degree key (as
    positive counts it) drops.
    """
    r, n = g.r, g.n_primers
    alive, d_plus, d_total = g.alive, g.d_plus, g.d_total
    off_plus, nb_plus, off_minus, nb_minus = g.off_plus, g.nb_plus, g.off_minus, g.nb_minus
    pop = stack.pop
    while stack:
        u = pop()
        if not alive[u]:
            continue
        alive[u] = 0
        if u < n:
            g.live_primers -= 1
            floor, push = 1, push_x
        else:
            floor, push = r, push_p
        for w in nb_plus[off_plus[u]:off_plus[u + 1]]:
            if alive[w]:
                d = d_plus[w] - 1
                d_plus[w] = d
                d_total[w] -= 1
                if d < floor:
                    stack.append(w)
                elif push is not None:
                    push(w)
        for w in nb_minus[off_minus[u]:off_minus[u + 1]]:
            if alive[w]:
                d_total[w] -= 1
                if push is not None and not positive:
                    push(w)


def _initial_prune(g):
    """Enforce the invariants on the freshly built graph."""
    n, r, alive = g.n_primers, g.r, g.alive
    stack = [u for u, d in enumerate(g.d_plus) if alive[u] and d < (r if u < n else 1)]
    if stack:
        _cascade(g, stack)


def _select_and_clean(g, p, selected, push_p, push_x, positive):
    """Select primer p as its pool's representative and clean its region.

    The selected primer is retired, not removed: it never enters a
    removal sweep, but it still counts toward its probes' live degrees
    until the step ends, exactly as if it left the graph only once all
    its edges are gone. The step: delete pool mates; freeze the r
    smallest-degree live spectrum probes as witnesses (degree order at
    selection time); then one sweep deletes every other primer reaching a
    witness and every remaining probe adjacent to p. A sweep peels to the
    same fixed point in any deletion order, so one sweep equals the two
    in sequence.
    """
    alive = g.alive
    pool_pos = g.primer_pool[p]

    alive[p] = 0  # retired
    g.live_primers -= 1

    stack = [q for q in g.pool_primers[pool_pos] if q != p and alive[q]]
    if stack:
        _cascade(g, stack, push_p, push_x, positive)

    live_np = [v for v in g.row(p) if alive[v]]
    assert len(live_np) >= g.r, "selected primer lost its witnesses"
    # stable sort of ascending vertices: ties stay in vertex order
    live_np.sort(key=(g.d_plus if positive else g.d_total).__getitem__)
    witnesses = live_np[:g.r]
    for v in witnesses:
        alive[v] = 0  # consumed; no sweep may delete another witness
    stack = live_np[g.r:]
    stack.extend(g.row(p, minus=True))
    for v in witnesses:
        stack.extend(g.row(v))
        stack.extend(g.row(v, minus=True))
    _cascade(g, stack, push_p, push_x, positive)

    pool = g.pools[pool_pos]
    primer_index = g.pool_primers[pool_pos].index(p)
    probe_ids, n = g.probe_ids, g.n_primers
    witness_ids = tuple(sorted(probe_ids[v - n] for v in witnesses))
    selected.append(SelectedPool(pool.id, primer_index, witness_ids))


def _min_degree_greedy(instance, by_probe, positive):
    """Repeatedly pop a minimum-degree live vertex and select a primer for it.

    minprimer pops primers and selects the popped one; minprobe
    (by_probe) pops probes and selects the popped probe's minimum-degree
    unextended primer, favoring sparsely contested regions of the array.
    """
    g = build_graph(instance)
    _initial_prune(g)
    alive = g.alive
    key = g.d_plus if positive else g.d_total
    n, size = g.n_primers, len(alive)
    side = range(n, size) if by_probe else range(n)
    heap = [key[u] * size + u for u in side if alive[u]]
    heapify(heap)

    def push(u):
        heappush(heap, key[u] * size + u)

    push_p, push_x = (None, push) if by_probe else (push, None)
    selected = []
    while g.live_primers:
        k, u = divmod(heappop(heap), size)
        if not alive[u] or key[u] != k:
            continue  # dead, or stale since its key dropped
        if by_probe:
            # rows ascend, so min keeps the lowest vertex on ties
            u = min((q for q in g.row(u) if alive[q]), key=key.__getitem__)
        _select_and_clean(g, u, selected, push_p, push_x, positive)
    return DesignResult(tuple(selected), fingerprint=instance.fingerprint,
                        pruned_empty=g.pruned_empty)
