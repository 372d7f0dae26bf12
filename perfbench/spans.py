"""Spans around calls into snpmux, recorded from outside the package.

A Tracer rebinds the names that snpmux callers look up (a module global
such as ``snpmux.solvers.build_graph``, or a method on a probe-space
class) to a wrapper that records one span per call: span id, run id,
parent span id, name, start, end, and an optional tuple of values (sizes
read off the call's result). Spans stay in memory until ``write``.
``close`` restores every rebound name, so the package is untouched
after a traced run.

``layer_metrics`` turns one run's spans into the per-layer metrics
declared in BENCHMARK.json. A span's self time is its duration minus the
part of its interval covered by its child spans.
"""

import contextlib
import importlib
import itertools
import os
import statistics
import time
import weakref

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes():
    """Resident set size of this process now, from /proc/self/statm (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """In-memory span recorder; see module docstring."""

    def __init__(self):
        self.spans = []  # (id, run, parent, name, start, end, values)
        self.run_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []
        self._seen_spaces = weakref.WeakSet()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        parent = self._stack[-1]
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, self.run_id, parent, name, start, end, ()))

    def wrap(self, owner, attr, name, values=None, rss=False, space=False):
        """Rebind owner.attr to a recording wrapper.

        values(args, result) returns a tuple stored with the span; with
        rss=True the resident-set growth across the call (bytes) is
        appended to it, and with space=True (a probe-space method) a flag
        that is 1 on the first call into that space object.
        """
        fn = getattr(owner, attr)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            first = tracer.first_use(args[0]) if space else None
            before = rss_bytes() if rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            vals = values(args, result) if values else ()
            if rss:
                vals += (rss_bytes() - before,)
            if space:
                vals += (first,)
            spans.append((sid, tracer.run_id, parent, name, start, end, vals))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def first_use(self, space):
        """1 the first time a probe-space object is seen, else 0."""
        if space in self._seen_spaces:
            return 0
        self._seen_spaces.add(space)
        return 1

    def close(self):
        """Restore every rebound name, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """Write all spans as TSV: id run parent name start_s end_s values."""
        with open(path, "w") as fh:
            fh.write("id\trun\tparent\tname\tstart_s\tend_s\tvalues\n")
            for sid, run, parent, name, start, end, vals in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%s\n" % (
                    sid, run, parent, name, start, end, ",".join(str(v) for v in vals)))


def install(tracer):
    """Wrap the public entry points of every snpmux layer the workloads use."""
    mod = importlib.import_module
    cli = mod("snpmux.cli")
    instance = mod("snpmux.instance")
    solvers = mod("snpmux.solvers")
    partition = mod("snpmux.partition")
    decodability = mod("snpmux.decodability")
    probespace = mod("snpmux.probespace")

    def graph_values(args, g):
        edges = sum(len(a) for a in g.pn_plus) + sum(len(a) for a in g.pn_minus)
        return (g.n_primers, g.n_probes, edges, g.pruned_empty)

    tracer.wrap(cli, "generate_random", "datasets.generate_random")
    tracer.wrap(cli, "load_snp_table", "datasets.load_snp_table")
    tracer.wrap(cli, "parse_instance_text", "instance.parse", rss=True)
    for owner in (cli, instance):
        tracer.wrap(owner, "format_instance_text", "instance.format")
    tracer.wrap(solvers, "build_graph", "instance.build_graph", graph_values, rss=True)
    for owner in (cli, partition):
        tracer.wrap(owner, "solve", "solvers.solve",
                    lambda args, res: (args[0].n_pools, res.size))
    tracer.wrap(cli, "partition", "partition.partition")
    for owner in (cli, decodability):
        tracer.wrap(owner, "verify_design", "decodability.verify",
                    lambda args, rep: (rep.checked_pools, len(rep.violations)))
        tracer.wrap(owner, "parse_design_lines", "decodability.parse_design")
    tracer.wrap(decodability.DesignResult, "to_lines", "decodability.to_lines")
    for cls in (probespace.KmerSpace, probespace.CTokenSpace):
        tracer.wrap(cls, "primer_adjacency", "probespace.adjacency",
                    lambda args, res: (len(res[0]) + len(res[1]),), space=True)
        tracer.wrap(cls, "spectrum", "probespace.spectrum", space=True)


def self_times(spans):
    """Map span id -> duration minus the part covered by its children."""
    children = {}
    for sp in spans:
        children.setdefault(sp[2], []).append(sp)
    out = {}
    for sp in spans:
        start, end = sp[4], sp[5]
        covered = 0.0
        reach = start
        for child in sorted(children.get(sp[0], ()), key=lambda c: c[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp[0]] = (end - start) - covered
    return out


# Parent span -> suffix of the probespace.adjacency_s split metric.
_ADJACENCY_PARENTS = {
    "instance.build_graph": "graph",
    "solvers.solve": "seq",
    "decodability.verify": "verify",
    "partition.partition": "partition",
}

DESIGN_COMMANDS = ("cli.solve", "cli.partition", "cli.verify")


def layer_metrics(spans):
    """Per-layer metrics of one traced run (one run id); values are numbers."""
    by_id = {sp[0]: sp for sp in spans}
    own = self_times(spans)

    def dur(sp):
        return sp[5] - sp[4]

    def named(name):
        return [sp for sp in spans if sp[3] == name]

    def parent_name(sp):
        parent = by_id.get(sp[2])
        return parent[3] if parent else None

    m = {}
    m["cli.self_s"] = sum(own[sp[0]] for sp in spans if sp[3] in DESIGN_COMMANDS)

    m["datasets.generate_random_s"] = sum(map(dur, named("datasets.generate_random")))
    m["datasets.load_snp_table_s"] = sum(map(dur, named("datasets.load_snp_table")))

    parses = named("instance.parse")
    m["instance.parse_s"] = sum(map(dur, parses))
    m["instance.parse_rss_mb"] = max((sp[6][-1] for sp in parses), default=0) / 2**20
    formats = named("instance.format")
    m["instance.format_s"] = sum(map(dur, formats))
    m["instance.format_calls"] = len(formats)
    graphs = named("instance.build_graph")
    m["instance.build_graph_s"] = sum(map(dur, graphs))
    m["instance.build_graph_self_s"] = sum(own[sp[0]] for sp in graphs)
    m["instance.build_graph_rss_mb"] = max((sp[6][4] for sp in graphs), default=0) / 2**20
    for i, key in enumerate(("primers", "probes", "edges", "pruned_empty")):
        m["instance.graph_" + key] = sum(sp[6][i] for sp in graphs)

    adjacency = named("probespace.adjacency")
    m["probespace.adjacency_calls"] = len(adjacency)
    m["probespace.spectrum_calls"] = len(named("probespace.spectrum"))
    m["probespace.edges"] = sum(sp[6][0] for sp in adjacency)
    split = dict.fromkeys(_ADJACENCY_PARENTS.values(), 0.0)
    total = first = 0.0
    for sp in spans:
        if not sp[3].startswith("probespace."):
            continue
        parent = parent_name(sp)
        if parent and parent.startswith("probespace."):
            continue  # spectrum inside primer_adjacency: already counted
        total += dur(sp)
        if sp[6][-1]:
            first += dur(sp)
        if parent in _ADJACENCY_PARENTS:
            split[_ADJACENCY_PARENTS[parent]] += dur(sp)
    m["probespace.adjacency_s"] = total
    m["probespace.first_call_s"] = first
    for key, value in split.items():
        m["probespace.adjacency_%s_s" % key] = value

    solves = named("solvers.solve")
    m["solvers.solve_calls"] = len(solves)
    m["solvers.solve_s"] = sum(map(dur, solves))
    m["solvers.self_s"] = sum(own[sp[0]] for sp in solves)
    m["solvers.selected"] = sum(sp[6][1] for sp in solves)

    verifies = named("decodability.verify")
    m["decodability.verify_s"] = sum(map(dur, verifies))
    m["decodability.self_s"] = sum(own[sp[0]] for sp in verifies)
    m["decodability.parse_design_s"] = sum(map(dur, named("decodability.parse_design")))
    m["decodability.to_lines_s"] = sum(map(dur, named("decodability.to_lines")))
    m["decodability.checked_pools"] = sum(sp[6][0] for sp in verifies)
    m["decodability.violations"] = sum(sp[6][1] for sp in verifies)

    parts = named("partition.partition")
    rounds = [sp for sp in solves if parent_name(sp) == "partition.partition"]
    round_s = [dur(sp) for sp in rounds]
    m["partition.rounds"] = len(rounds)
    m["partition.residual_pools"] = sum(sp[6][0] for sp in rounds)
    m["partition.self_s"] = sum(own[sp[0]] for sp in parts)
    m["partition.round_s_median"] = statistics.median(round_s) if round_s else 0.0
    m["partition.round_s_max"] = max(round_s, default=0.0)
    return m
