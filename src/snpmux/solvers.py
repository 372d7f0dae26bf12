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

minprimer and minprobe are one loop over a binary heap of (key, index)
pairs packed into single ints. Degrees only decrease, so every decrease
pushes a fresh entry and pops skip dead or stale ones. The heap yields
the smallest live (key, index): ties always break toward the lowest
index, which makes every run deterministic.

The removal rules maintain two invariants on the live graph: a primer
stays only while it has >= r live unextended-spectrum probes, and a
probe stays only while some live primer reaches it unextended.
"""

import logging
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .decodability import DesignResult, SelectedPool
from .instance import build_graph

logger = logging.getLogger(__name__)

ALGORITHMS = ("seq", "minprimer", "minprobe")
DEGREE_MODES = ("total", "positive")


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

    A candidate is accepted when it has >= r probes nobody selected can
    reach, and accepting it leaves every earlier selection with >= r
    informative probes. Bookkeeping is incremental: per-probe coverage
    counts plus the owner of every currently-informative probe.
    """
    space = instance.space
    r = instance.redundancy
    cover = {}  # probe id -> number of selected extended spectra covering it
    informative_for = {}  # probe id -> selection slot it is informative for
    counts = []  # informative probes per selection slot
    chosen = []  # (pool_id, primer_index, own spectrum set)
    pruned_empty = 0
    for pool in instance.pools:
        for primer_index, primer in enumerate(pool.primers):
            nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
            if not nplus:
                pruned_empty += 1
                continue
            gain = sum(1 for x in nplus if x not in cover)
            if gain < r:
                continue
            # would any earlier selection drop below r informative probes?
            loss = {}
            ok = True
            for x in nplus:
                slot = informative_for.get(x)
                if slot is not None:
                    loss[slot] = loss.get(slot, 0) + 1
            for x in nminus:
                slot = informative_for.get(x)
                if slot is not None:
                    loss[slot] = loss.get(slot, 0) + 1
            for slot, lost in loss.items():
                if counts[slot] - lost < r:
                    ok = False
                    break
            if not ok:
                continue
            # accept: update coverage and informative ownership
            slot = len(chosen)
            npset = set(nplus)
            for x in nplus:
                c = cover.get(x, 0)
                cover[x] = c + 1
                if c == 0:
                    informative_for[x] = slot
                else:
                    owner = informative_for.pop(x, None)
                    if owner is not None:
                        counts[owner] -= 1
            for x in nminus:
                c = cover.get(x, 0)
                cover[x] = c + 1
                if c:
                    owner = informative_for.pop(x, None)
                    if owner is not None:
                        counts[owner] -= 1
            counts.append(gain)
            chosen.append((pool.id, primer_index, npset))
            break
    selected = []
    for slot, (pool_id, primer_index, npset) in enumerate(chosen):
        own = sorted(x for x in npset if informative_for.get(x) == slot)
        selected.append(SelectedPool(pool_id, primer_index, tuple(own[:r])))
    return DesignResult(tuple(selected), fingerprint=instance.fingerprint,
                        pruned_empty=pruned_empty)


def remove_primer(g, p):
    """Delete live primer p; cascades removals to keep graph invariants."""
    if not g.alive_p[p]:
        raise ValueError("primer %d is not live" % p)
    _cascade(g, [p])


def remove_probe(g, v):
    """Delete live probe vertex v; cascades removals to keep invariants."""
    if not g.alive_x[v]:
        raise ValueError("probe vertex %d is not live" % v)
    _cascade(g, [~v])


def _cascade(g, stack, push_p=None, push_x=None, positive=False):
    """Process deletions until the degree invariants hold again.

    Stack entries: p >= 0 deletes primer p, ~v < 0 deletes probe vertex v.
    A primer is deleted when its live unextended spectrum drops below r;
    a probe when no live primer reaches it unextended. Entries for
    already-dead vertices are skipped, so duplicates are harmless.
    push_p/push_x, when given, receive (new key, index) for every live
    primer/probe whose degree drops.
    """
    r = g.r
    alive_p, alive_x = g.alive_p, g.alive_x
    dp_plus, dp_minus = g.dp_plus, g.dp_minus
    dx_plus, dx_minus = g.dx_plus, g.dx_minus
    pn_plus, pn_minus = g.pn_plus, g.pn_minus
    xn_plus, xn_minus = g.xn_plus, g.xn_minus
    pop = stack.pop
    while stack:
        entry = pop()
        if entry >= 0:
            p = entry
            if not alive_p[p]:
                continue
            alive_p[p] = 0
            g.live_primers -= 1
            for v in pn_plus[p]:
                if alive_x[v]:
                    d = dx_plus[v] - 1
                    dx_plus[v] = d
                    if d == 0:
                        stack.append(~v)
                    elif push_x is not None:
                        push_x(d if positive else d + dx_minus[v], v)
            for v in pn_minus[p]:
                if alive_x[v]:
                    dx_minus[v] -= 1
                    if push_x is not None and not positive:
                        push_x(dx_plus[v] + dx_minus[v], v)
        else:
            v = ~entry
            if not alive_x[v]:
                continue
            alive_x[v] = 0
            for p in xn_plus[v]:
                if alive_p[p]:
                    d = dp_plus[p] - 1
                    dp_plus[p] = d
                    if d < r:
                        stack.append(p)
                    elif push_p is not None:
                        push_p(d if positive else d + dp_minus[p], p)
            for p in xn_minus[v]:
                if alive_p[p]:
                    dp_minus[p] -= 1
                    if push_p is not None and not positive:
                        push_p(dp_plus[p] + dp_minus[p], p)


def _initial_prune(g):
    """Enforce the invariants on the freshly built graph."""
    stack = [p for p in range(g.n_primers) if g.alive_p[p] and g.dp_plus[p] < g.r]
    stack.extend(~v for v in range(g.n_probes) if g.alive_x[v] and g.dx_plus[v] == 0)
    if stack:
        _cascade(g, stack)


def _degree_key(plus, minus, positive):
    """Live degree of a vertex as the degree mode counts it."""
    if positive:
        return plus.__getitem__
    return lambda i: plus[i] + minus[i]


def _select_and_clean(g, p, selected, push_p, push_x, positive):
    """Select primer p as its pool's representative and clean its region.

    The selected primer is retired, not removed: it never enters a
    removal sweep, but it still counts toward its probes' live degrees
    until the step ends, exactly as if it left the graph only once all
    its edges are gone. The step: delete pool mates; freeze the r
    smallest-degree live spectrum probes as witnesses (degree order at
    selection time); delete every other primer reaching a witness; then
    delete the remaining probes adjacent to p.
    """
    alive_p, alive_x = g.alive_p, g.alive_x
    pool_pos = g.primer_pool[p]

    alive_p[p] = 0  # retired
    g.live_primers -= 1

    stack = [q for q in g.pool_primers[pool_pos] if q != p and alive_p[q]]
    if stack:
        _cascade(g, stack, push_p, push_x, positive)

    live_np = [v for v in g.pn_plus[p] if alive_x[v]]
    assert len(live_np) >= g.r, "selected primer lost its witnesses"
    # stable sort of ascending vertices: ties stay in index order
    live_np.sort(key=_degree_key(g.dx_plus, g.dx_minus, positive))
    witnesses = live_np[:g.r]
    for v in witnesses:
        alive_x[v] = 0  # consumed; no sweep may delete another witness
    stack = []
    for v in witnesses:
        stack.extend(q for q in g.xn_plus[v] if alive_p[q])
        stack.extend(q for q in g.xn_minus[v] if alive_p[q])
    if stack:
        _cascade(g, stack, push_p, push_x, positive)

    stack = [~v for v in g.pn_plus[p] if alive_x[v]]
    stack.extend(~v for v in g.pn_minus[p] if alive_x[v])
    if stack:
        _cascade(g, stack, push_p, push_x, positive)

    pool = g.pools[pool_pos]
    primer_index = g.pool_primers[pool_pos].index(p)
    probe_ids = g.probe_ids
    witness_ids = tuple(sorted(probe_ids[v] for v in witnesses))
    selected.append(SelectedPool(pool.id, primer_index, witness_ids))


def _min_degree_greedy(instance, by_probe, positive):
    """Repeatedly pop a minimum-degree live vertex and select a primer for it.

    minprimer pops primers and selects the popped one; minprobe
    (by_probe) pops probes and selects the popped probe's minimum-degree
    unextended primer, favoring sparsely contested regions of the array.
    """
    g = build_graph(instance)
    _initial_prune(g)
    alive_p = g.alive_p
    pkey = _degree_key(g.dp_plus, g.dp_minus, positive)
    if by_probe:
        alive, key = g.alive_x, _degree_key(g.dx_plus, g.dx_minus, positive)
    else:
        alive, key = alive_p, pkey
    n = len(alive)
    heap = [key(i) * n + i for i in range(n) if alive[i]]
    heapify(heap)

    def push(k, i):
        heappush(heap, k * n + i)

    push_p, push_x = (None, push) if by_probe else (push, None)
    selected = []
    while g.live_primers:
        k, i = divmod(heappop(heap), n)
        if not alive[i] or key(i) != k:
            continue  # dead, or stale since its key dropped
        if by_probe:
            # xn_plus lists ascend, so min keeps the lowest index on ties
            i = min((q for q in g.xn_plus[i] if alive_p[q]), key=pkey)
        _select_and_clean(g, i, selected, push_p, push_x, positive)
    return DesignResult(tuple(selected), fingerprint=instance.fingerprint,
                        pruned_empty=g.pruned_empty)
