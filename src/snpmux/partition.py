"""Partition a SNP set across several arrays.

Each round runs the named solver on the pools not yet covered and
sends the selected subset to its own array, so early arrays are large
and the tail shrinks quickly. Pools that no single-pool assay can decode
(every primer has fewer than r probes of its own) are classified
``uncovered`` up front: no array can ever carry them, and leaving them
in the residual would only stall termination.

A selection's decodability depends only on the selected primers, so
every array's design verifies against the one parent instance. Each
round solves ``instance.subset`` of the residual pools, which shares the
parent's fingerprint and hybridization graph: every DesignResult is
stamped with the parent fingerprint, the residual text is never
formatted or hashed, and a graph solver builds the graph in the first
round only, each later round resetting its run state to the residual.
Sub-instances keep original pool ids so results map straight back.
"""

import logging
from dataclasses import dataclass

from .solvers import check_algorithm, solve

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


def _isolation_decodable(pool, space, r):
    """Can some primer of this pool alone produce r readout probes?"""
    return any(len(space.spectrum(p.sequence)) >= r for p in pool.primers)


def partition(instance, algorithm="seq", max_arrays=None):
    """Cover the instance with arrays; see module docstring.

    Args:
        instance: the full problem instance.
        algorithm: the solver each round runs, one of ALGORITHMS, checked
            before any work; defaults to ``seq``, the cheapest per round.
        max_arrays: optional cap on rounds; leftovers are reported in
            ``remaining``.
    """
    check_algorithm(algorithm)
    if max_arrays is not None and max_arrays < 1:
        raise ValueError("max_arrays must be >= 1, got %r" % (max_arrays,))
    space = instance.space
    r = instance.redundancy

    uncovered = []
    residual = []
    for pool in instance.pools:
        if _isolation_decodable(pool, space, r):
            residual.append(pool)
        else:
            uncovered.append(pool.id)
    if uncovered:
        logger.info("%d pool(s) undecodable in isolation", len(uncovered))

    arrays = []
    while residual and (max_arrays is None or len(arrays) < max_arrays):
        result = solve(instance.subset(residual), algorithm)
        if not result.size:
            # every residual pool is decodable alone, so each solver
            # selects at least one; never loop on an empty round
            raise AssertionError("solver selected none of %d residual pools" % len(residual))
        arrays.append(result)
        taken = set(result.pool_ids())
        residual = [pool for pool in residual if pool.id not in taken]

    return PartitionReport(
        arrays=tuple(arrays),
        uncovered=tuple(uncovered),
        remaining=tuple(pool.id for pool in residual),
    )


def coverage_curve(report):
    """Cumulative covered fraction after each array, 1-based indices."""
    out = []
    covered = 0
    total = report.total_pools
    for i, res in enumerate(report.arrays, start=1):
        covered += res.size
        out.append((i, covered / total if total else 1.0))
    return out
