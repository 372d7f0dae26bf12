"""Partition a SNP set across several arrays.

Each array takes what the named solver selects from the pools the
arrays before it left, so early arrays are large and the tail shrinks
quickly. Pools that no single-pool assay can decode (every primer has
fewer than r probes of its own) are classified ``uncovered`` first: no
array can ever carry them, and leaving them in the residual would only
stall termination.

A selection's decodability depends only on the selected primers, so
every array's design verifies against the one parent instance, and
every DesignResult is stamped with the parent fingerprint. Pool ids
stay the caller's, so results map straight back.

``seq`` is first-fit, so its arrays come from one pass over the pools
(solvers.first_fit_pack): each pool goes to the first array that takes
it. A graph solver runs one round per array instead, each on
``instance.subset`` of the residual pools, which shares the parent's
hybridization graph: the graph is built once, and each round resets
only its run state to the residual. The uncovered pools are read off
that graph's unextended row lengths before the first round.
"""

import logging
from dataclasses import dataclass
from itertools import islice

from .solvers import check_algorithm, first_fit_pack, root_graph, solve

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PartitionReport:
    """Arrays plus the pools no array can carry.

    arrays: one DesignResult per array, in extraction order; pool ids are
        the caller's original ids.
    uncovered: pools undecodable even in isolation.
    remaining: pools left unassigned because max_arrays stopped the run.
    """

    arrays: tuple
    uncovered: tuple
    remaining: tuple

    @property
    def n_covered(self):
        return sum(res.size for res in self.arrays)

    @property
    def total_pools(self):
        """Input pool count: each pool is in one array, uncovered or remaining."""
        return self.n_covered + len(self.uncovered) + len(self.remaining)

    @property
    def fraction_covered_all(self):
        """Covered fraction of all input pools."""
        return self.n_covered / self.total_pools if self.total_pools else 1.0

    @property
    def fraction_covered_decodable(self):
        """Covered fraction of the pools any assay could decode."""
        denom = self.total_pools - len(self.uncovered)
        return self.n_covered / denom if denom else 1.0


def partition(instance, algorithm="seq", max_arrays=None):
    """Cover the instance with arrays; see module docstring.

    Args:
        instance: the full problem instance.
        algorithm: the solver for each array, one of ALGORITHMS, checked
            before any work; defaults to ``seq``, the cheapest.
        max_arrays: optional cap on arrays; leftovers are reported in
            ``remaining``.
    """
    check_algorithm(algorithm)
    if max_arrays is not None and max_arrays < 1:
        raise ValueError("max_arrays must be >= 1, got %r" % (max_arrays,))
    if algorithm == "seq":
        arrays, uncovered, remaining = first_fit_pack(instance, max_arrays)
    else:
        arrays, uncovered, remaining = _rounds(instance, algorithm, max_arrays)
    if uncovered:
        logger.info("%d pool(s) undecodable in isolation", len(uncovered))
    return PartitionReport(tuple(arrays), tuple(uncovered), tuple(remaining))


def _rounds(instance, algorithm, max_arrays):
    """A graph solver's arrays, one solve per round: (designs, uncovered, remaining)."""
    g = root_graph(instance)
    r, off = instance.redundancy, g.off_plus
    # the instance's pools are the root's, or some of them, in the same
    # order, so one walk of the root's rows meets each pool's in turn
    rows = zip(g.pools, g.pool_start, islice(g.pool_start, 1, None))
    uncovered, residual = [], []
    for pool in instance.pools:
        for own, first, end in rows:
            if own is pool:
                break
        if any(off[u + 1] - off[u] >= r for u in range(first, end)):
            residual.append(pool)
        else:
            uncovered.append(pool.id)

    arrays = []
    while residual and len(arrays) != max_arrays:
        result = solve(instance.subset(residual), algorithm)
        if not result.size:
            # every residual pool is decodable alone, so each solver
            # selects at least one; never loop on an empty round
            raise AssertionError("solver selected none of %d residual pools" % len(residual))
        arrays.append(result)
        taken = set(result.pool_ids())
        residual = [pool for pool in residual if pool.id not in taken]
    return arrays, uncovered, [pool.id for pool in residual]


def coverage_curve(report):
    """Cumulative covered fraction after each array, 1-based indices."""
    out = []
    covered = 0
    total = report.total_pools
    for i, res in enumerate(report.arrays, start=1):
        covered += res.size
        out.append((i, covered / total if total else 1.0))
    return out
