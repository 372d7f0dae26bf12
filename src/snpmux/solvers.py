"""Greedy selection of maximum decodable pool subsets.

Three heuristics, all returning designs that pass independent
verification by construction:

* ``seq``: scan pools in order and keep a pool whenever its first
  acceptable primer leaves every selection with >= r informative probes.
  It is one array of the first-fit packer (``first_fit_pack``) that
  partitions with it, offered every pool, and its coverage state is a
  per-probe table.
* ``minprimer``: repeatedly select a minimum-degree live primer from the
  hybridization graph, certify it with its r smallest-degree spectrum
  probes, and remove every primer that could mask those witnesses.
* ``minprobe``: like minprimer, but first choose a minimum-degree probe
  and represent it by its minimum-degree unextended primer, favoring
  sparsely contested regions of the array.

minprimer and minprobe run on the hybridization graph, which is
bipartite between primers and probes. For a primer p, N+(p) is the
spectrum of the unextended primer (the informative side) and N-(p) holds
the probes gained only through extension products. Only probes with at
least one incident edge are materialized. Both sides share one vertex
space: primers first, in pool order, then probes in increasing probe-id
order, so every deletion rule reads the same arrays. A vertex's degree
counts its live spectrum and extension-only edges alike.

The adjacency is built once per root instance, on its first graph solve,
and kept on it (see ProblemInstance.subset). The build makes no run state:
every solve, the first included, resets the run state (live flags and
degrees) once, to the pools it solves, so solving an instance twice, or
one subset of it per partition round, builds nothing anew.

They are one loop over a binary heap of (key, vertex) pairs packed
into single ints. Degrees only decrease, so every decrease pushes a
fresh entry and pops skip dead or stale ones. The heap yields the
smallest live (key, vertex): ties always break toward the lowest vertex,
which is the lowest primer index or probe id, so every run is
deterministic.

The removal rules maintain two invariants on the live graph: a primer
stays only while it has >= r live unextended-spectrum probes, and a
probe stays only while some live primer reaches it unextended. Both are
one rule over the graph's shared vertex space: a vertex stays while its
live unextended degree is at least its side's floor.
"""

import logging
from array import array
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import chain, islice

from .decodability import DesignResult, SelectedPool
from .probespace import coverage_table, table_entries

logger = logging.getLogger(__name__)

ALGORITHMS = ("seq", "minprimer", "minprobe")
_SHARED = -1  # first_fit: a covered probe informative for nobody


def check_algorithm(name):
    """name, if it is one of ALGORITHMS; otherwise raise ValueError."""
    if name not in ALGORITHMS:
        raise ValueError("algorithm must be one of %s, got %r" % (ALGORITHMS, name))
    return name


def solve(instance, algorithm="seq"):
    """Run the named solver, one of ALGORITHMS, on an instance."""
    check_algorithm(algorithm)
    if algorithm == "seq":
        return sequential_greedy(instance)
    return _min_degree_greedy(instance, algorithm == "minprobe")


def first_fit(owner, counts, r, nplus, nminus):
    """Give a primer the next slot if it fits; return whether it did.

    It fits when >= r of its unextended probes are uncovered and adding it
    leaves every slot with >= r informative probes; if not, nothing
    changes. ``owner`` is a probespace.coverage_table, whose entry is 0
    for an uncovered probe, ``slot + 1`` for a probe informative for
    that slot (covered once, unextended) and ``_SHARED`` for any other
    covered probe (covered twice, or once only through an extension).
    ``counts`` holds each slot's informative-probe count.
    """
    states = list(table_entries(owner, nplus))
    gain = states.count(0)
    if gain < r:
        return False
    # would any earlier selection drop below r informative probes?
    loss = {}
    for s in chain(states, table_entries(owner, nminus)):
        if s > 0:
            loss[s] = loss.get(s, 0) + 1
    if any(counts[s - 1] - lost < r for s, lost in loss.items()):
        return False
    for s, lost in loss.items():
        counts[s - 1] -= lost
    counts.append(gain)
    mine = len(counts)  # the new slot, plus one
    for x, s in zip(nplus, states):
        owner[x] = _SHARED if s else mine
    for x in nminus:
        owner[x] = _SHARED
    return True


class _OpenArray:
    """One array of a first-fit packing: its coverage and what it took.

    owner and counts are first_fit's state. The pool id and primer index
    of slot s are picks[s], and its unextended spectrum is
    probes[ends[s - 1]:ends[s]] (from 0 for slot 0): one flat array of
    probe ids, 4 bytes each, since every id is below 4**16. pruned counts
    the primers with an empty unextended spectrum among those offered.
    """

    __slots__ = ("owner", "counts", "picks", "probes", "ends", "pruned")

    def __init__(self, owner):
        self.owner = owner
        self.counts = []
        self.picks = []
        self.probes = array("I")
        self.ends = array("q")
        self.pruned = 0

    def offer(self, pool, sides, adjacency, r):
        """Take the pool's first primer that first_fit accepts; return whether one was.

        sides holds the adjacency of the pool's first primers, and grows
        by each further primer offered, so no primer's is computed twice.
        """
        for i, primer in enumerate(pool.primers):
            if i == len(sides):
                sides.append(adjacency(primer.sequence, primer.extensions))
            nplus, nminus = sides[i]
            if not nplus:
                self.pruned += 1
            elif first_fit(self.owner, self.counts, r, nplus, nminus):
                self.picks.append((pool.id, i))
                self.probes.extend(nplus)
                self.ends.append(len(self.probes))
                return True
        return False

    def design(self, r, fingerprint):
        """The design: each slot's witnesses are its r lowest own probes."""
        owner, probes = self.owner, self.probes
        selected = []
        start = 0
        for mine, ((pool_id, index), end) in enumerate(zip(self.picks, self.ends), start=1):
            own = [x for x in probes[start:end] if owner[x] == mine][:r]
            selected.append(SelectedPool(pool_id, index, tuple(own)))
            start = end
        return DesignResult(tuple(selected), fingerprint=fingerprint, pruned_empty=self.pruned)


def first_fit_pack(instance, max_arrays=None):
    """Pack the pools into arrays first-fit, in one pass: (designs, uncovered, remaining).

    A pool none of whose primers has r unextended probes is uncovered
    before any array sees it. Each other pool, in order, is offered to the
    open arrays in turn and goes to the first that takes one of its
    primers. When none does, a new array opens and takes it, up to
    max_arrays; a pool that no array may take is remaining. An array's
    state depends only on the pools it took, so array j is what ``seq``
    selects from the pools that arrays 1 to j - 1 rejected, and each
    primer's adjacency is computed once, not once per array.

    Each array's coverage is a probespace.coverage_table, dense while the
    tables open so far fit its rule.
    """
    space, r = instance.space, instance.redundancy
    adjacency = space.primer_adjacency
    n_primers = instance.n_primers
    arrays, uncovered, remaining = [], [], []
    for pool in instance.pools:
        sides = []  # the adjacency of the pool's primers, as far as computed
        for primer in pool.primers:
            sides.append(adjacency(primer.sequence, primer.extensions))
            if len(sides[-1][0]) >= r:
                break
        else:
            uncovered.append(pool.id)
            continue
        for a in arrays:
            if a.offer(pool, sides, adjacency, r):
                break
        else:
            if len(arrays) == max_arrays:
                remaining.append(pool.id)
            else:
                # an empty table takes any primer with r unextended probes
                arrays.append(_OpenArray(coverage_table(space, n_primers, len(arrays))))
                arrays[-1].offer(pool, sides, adjacency, r)
    designs = [a.design(r, instance.fingerprint) for a in arrays]
    return designs, uncovered, remaining


def sequential_greedy(instance):
    """First-fit scan: each pool keeps its first primer ``first_fit`` accepts.

    It is one of first_fit_pack's arrays, offered every pool.
    """
    space, r = instance.space, instance.redundancy
    a = _OpenArray(coverage_table(space, instance.n_primers))
    for pool in instance.pools:
        a.offer(pool, [], space.primer_adjacency, r)
    return a.design(r, instance.fingerprint)


class HybridizationGraph:
    """Mutable bipartite primer/probe graph used by the greedy solvers.

    Primers and probes share one vertex space of n_primers + n_probes
    vertices. Primer i is vertex i, in pool order then position in pool,
    and keeps it even when pruned, so results can always be mapped back
    to the instance: the pool at position i owns primer vertices
    pool_start[i] .. pool_start[i + 1] - 1. The probe of rank j in
    increasing probe-id order is vertex n_primers + j, so vertex order is
    id order on both sides; probe_ids maps a probe vertex's rank back to
    its id.

    The adjacency is stored in CSR (compressed sparse row) form, one pair
    of flat ``array`` objects per sign: the row of vertex u is
    nb_plus[off_plus[u]:off_plus[u + 1]] for its unextended-spectrum
    neighbours, and likewise nb_minus/off_minus for its extension-only
    neighbours; row(u) and row(u, minus=True) return them. Primer rows
    come first, in vertex order; probe rows are their transpose. Every
    row ascends, which keeps every traversal deterministic.

    The run state sits apart from the adjacency: alive flags live
    vertices; d_plus[u] counts u's live unextended neighbours and
    d_total[u] all its live neighbours; live_primers counts live primers.
    Primers whose unextended spectrum is empty can never witness anything;
    they get no edges and start every run dead (counted in pruned_empty).
    The build makes the adjacency only, and sets pruned_empty to what a
    run on every pool counts; ``reset`` alone makes the run state, for a
    run on some or all of the pools.
    """

    def __init__(self, instance):
        space = instance.space
        pools = instance.pools
        self.r = instance.redundancy
        self.pools = pools
        pool_start = array("i", [0])
        for pool in pools:
            pool_start.append(pool_start[-1] + len(pool.primers))
        self.pool_start = pool_start

        # primer rows as raw probe ids, 64-bit: kmer:16 ids reach 4**16 - 1
        n = pool_start[-1]
        raw_plus, raw_minus = array("q"), array("q")
        off_plus, off_minus = array("q", [0]), array("q", [0])
        pruned = 0
        for primer in (primer for pool in pools for primer in pool.primers):
            nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
            if nplus:
                raw_plus.extend(nplus)
                raw_minus.extend(nminus)
            else:
                pruned += 1
            off_plus.append(len(raw_plus))
            off_minus.append(len(raw_minus))
        if pruned:
            logger.warning("pruned %d primer(s) with empty unextended spectrum", pruned)

        # each transient table is dropped once used: together they set the
        # build's peak memory
        ids = set(raw_plus)
        ids.update(raw_minus)
        self.probe_ids = array("q", sorted(ids))
        del ids
        m = len(self.probe_ids)
        vertex = dict(zip(self.probe_ids, range(n, n + m))).__getitem__
        nb_plus = array("i", map(vertex, raw_plus))
        del raw_plus
        nb_minus = array("i", map(vertex, raw_minus))
        del raw_minus, vertex
        _append_transpose(off_plus, nb_plus, n, m)
        _append_transpose(off_minus, nb_minus, n, m)
        self.off_plus, self.nb_plus = off_plus, nb_plus
        self.off_minus, self.nb_minus = off_minus, nb_minus
        self.pruned_empty = pruned

    def reset(self, pools):
        """Reset the run state to a run on these pools of the graph.

        The run's primers with a non-empty unextended spectrum start live,
        and so does every probe one of them reaches, by either sign; every
        other vertex starts dead, with no live degree. A run on every pool
        reads its degrees off the offsets' differences and walks no row;
        any other run counts them up from none through its own rows.
        """
        off_plus, nb_plus = self.off_plus, self.nb_plus
        off_minus, nb_minus = self.off_minus, self.nb_minus
        n_run = sum(len(pool.primers) for pool in pools)
        # the old state goes first, so the new one can take its memory
        self.d_plus = self.d_total = self.alive = None
        if n_run == self.n_primers:
            d_plus = [b - a for a, b in zip(off_plus, islice(off_plus, 1, None))]
            d_total = [d + b - a for d, a, b in zip(d_plus, off_minus, islice(off_minus, 1, None))]
        else:
            d_plus = [0] * (len(off_plus) - 1)
            d_total = d_plus[:]
            run, pool_start = {pool.id for pool in pools}, self.pool_start
            for i, pool in enumerate(self.pools):
                if pool.id not in run:
                    continue
                for u in range(pool_start[i], pool_start[i + 1]):
                    a, b, c, d = off_plus[u], off_plus[u + 1], off_minus[u], off_minus[u + 1]
                    d_plus[u] = b - a
                    d_total[u] = b - a + d - c
                    for v in nb_plus[a:b]:
                        d_plus[v] += 1
                        d_total[v] += 1
                    for v in nb_minus[c:d]:
                        d_total[v] += 1
        self.d_plus, self.d_total = d_plus, d_total
        self.alive = bytearray(map(bool, d_total))
        self.live_primers = self.alive.count(1, 0, self.n_primers)
        self.pruned_empty = n_run - self.live_primers

    @property
    def n_primers(self):
        return self.pool_start[-1]

    @property
    def n_probes(self):
        return len(self.probe_ids)

    def row(self, u, minus=False):
        """Vertex u's neighbours, ascending: N+ or, with minus, N-."""
        if minus:
            return self.nb_minus[self.off_minus[u]:self.off_minus[u + 1]]
        return self.nb_plus[self.off_plus[u]:self.off_plus[u + 1]]

    @property
    def pn_plus(self):
        """N+ of every primer as probe vertices, copied per access.

        Only the benchmark's tracer, perfbench/spans.py, reads it.
        """
        return [tuple(self.row(u)) for u in range(self.n_primers)]

    @property
    def pn_minus(self):
        """N- of every primer as probe vertices, copied per access.

        Only the benchmark's tracer, perfbench/spans.py, reads it.
        """
        return [tuple(self.row(u, minus=True)) for u in range(self.n_primers)]


def _append_transpose(off, nb, n, m):
    """Complete one sign's CSR arrays with the probe rows.

    On entry off holds n + 1 offsets and nb the primer rows (probe
    vertices). A counting sort appends the transpose: probe v's row lists
    the primers whose row holds v, ascending because primers are visited
    in vertex order. Both arrays grow in place.
    """
    end = len(nb)
    cursor = [0] * (n + m)
    for v in nb:
        cursor[v] += 1
    for v in range(n, n + m):
        count = cursor[v]
        cursor[v] = end
        end += count
        off.append(end)
    nb *= 2  # room for the probe rows, overwritten below
    for u in range(n):
        for v in nb[off[u]:off[u + 1]]:
            k = cursor[v]
            nb[k] = u
            cursor[v] = k + 1


def build_graph(instance):
    """Build the hybridization graph's adjacency for an instance; reset makes a run."""
    return HybridizationGraph(instance)


def root_graph(instance):
    """The graph of the instance's root, built on first use."""
    root = instance.root
    if root.graph is None:
        root.graph = build_graph(root)
    return root.graph


def _cascade(g, stack, push_p=None, push_x=None):
    """Delete the vertices on the stack until the degree invariants hold again.

    Deleting a vertex lowers its live neighbours' degrees, and a
    neighbour whose live unextended degree falls below its floor is
    deleted in turn: r for a primer (the neighbour of a deleted probe),
    1 for a probe (the neighbour of a deleted primer). Already-dead
    vertices are skipped, so duplicates are harmless. push_p/push_x, when
    given, receive every live primer/probe vertex whose d_total drops.
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
                if push is not None:
                    push(w)


def _initial_prune(g):
    """Enforce the invariants on a freshly reset run state."""
    n, r, alive = g.n_primers, g.r, g.alive
    stack = [u for u, d in enumerate(g.d_plus) if alive[u] and d < (r if u < n else 1)]
    if stack:
        _cascade(g, stack)


def _select_and_clean(g, p, selected, push_p, push_x):
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
    pool_start = g.pool_start
    pos = bisect_right(pool_start, p) - 1
    first = pool_start[pos]

    alive[p] = 0  # retired
    g.live_primers -= 1

    stack = [q for q in range(first, pool_start[pos + 1]) if alive[q]]
    if stack:
        _cascade(g, stack, push_p, push_x)

    live_np = [v for v in g.row(p) if alive[v]]
    assert len(live_np) >= g.r, "selected primer lost its witnesses"
    # stable sort of ascending vertices: ties stay in vertex order
    live_np.sort(key=g.d_total.__getitem__)
    witnesses = live_np[:g.r]
    for v in witnesses:
        alive[v] = 0  # consumed; no sweep may delete another witness
    stack = live_np[g.r:]
    stack.extend(g.row(p, minus=True))
    for v in witnesses:
        stack.extend(g.row(v))
        stack.extend(g.row(v, minus=True))
    _cascade(g, stack, push_p, push_x)

    probe_ids, n = g.probe_ids, g.n_primers
    witness_ids = tuple(sorted(probe_ids[v - n] for v in witnesses))
    selected.append(SelectedPool(g.pools[pos].id, p - first, witness_ids))


def _min_degree_greedy(instance, by_probe):
    """Repeatedly pop a minimum-degree live vertex and select a primer for it.

    minprimer pops primers and selects the popped one; minprobe
    (by_probe) pops probes and selects the popped probe's minimum-degree
    unextended primer, favoring sparsely contested regions of the array.
    """
    g = root_graph(instance)
    g.reset(instance.pools)
    _initial_prune(g)
    alive = g.alive
    key = g.d_total
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
        _select_and_clean(g, u, selected, push_p, push_x)
    return DesignResult(tuple(selected), fingerprint=instance.fingerprint,
                        pruned_empty=g.pruned_empty)
