"""Command line interface.

Subcommands: probes, gen, ingest, solve, partition, verify, reduce,
bench. Every report is TSV with '#'-prefixed comment lines on top that
record the subcommand, tool version, full flag set, probe space,
instance fingerprint, and summary counts, so reports are self-describing
and re-parseable. Timing goes to stderr so identical invocations produce
byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
"""

import argparse
import shlex
import sys
import time

from . import __version__
from .datasets import EXTENSION_MODES, RandomSpec, generate_random, load_snp_table
from .decodability import (
    KIND_STRUCTURE,
    DesignResult,
    Violation,
    parse_design_lines,
    verify_design,
)
from .instance import (
    InstanceFormatError,
    ProblemInstance,
    fingerprint,
    format_instance_text,
    parse_instance_text,
    read_text,
    records,
)
from .oracles import BipartiteGraph, reduce_matching_to_design
from .partition import coverage_curve, partition
from .probespace import ConfigError, make_space
from .solvers import ALGORITHMS, check_algorithm, solve

USAGE_ERRORS = (ValueError, OSError)


def _manifest(subcommand, argv, fields):
    lines = [
        "# snpmux %s" % subcommand,
        "# version=%s" % __version__,
        "# args=%s" % " ".join(shlex.quote(a) for a in argv),
    ]
    lines.extend("# %s=%s" % field for field in fields)
    return lines


def _write(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_instance(path, subcommand, argv, pools, fields):
    """Write an instance report: the manifest fields, then the sha256 of
    the canonical instance text, then that text, formatted once."""
    text = format_instance_text(pools)
    lines = _manifest(subcommand, argv, fields + [("instance_sha256", fingerprint(text))])
    lines.extend(text.splitlines())
    _write(path, lines)


def _run_design(args, run, **kwargs):
    """Load a solve or partition input and time run(instance,
    args.algorithm, **kwargs): (instance, its result, seconds)."""
    instance = _load_instance(args.infile, make_space(args.probes), args.redundancy)
    started = time.perf_counter()
    result = run(instance, args.algorithm, **kwargs)
    return instance, result, time.perf_counter() - started


def _design_manifest(subcommand, argv, args, instance, fields):
    """A design report's manifest: the run's settings and instance, then fields."""
    return _manifest(subcommand, argv, [
        ("probes", instance.space.descriptor),
        ("redundancy", args.redundancy),
        ("algorithm", args.algorithm),
        ("instance_sha256", instance.fingerprint),
        ("pools", instance.n_pools),
    ] + fields)


def _random_spec(args, n_pools, seed):
    return RandomSpec(n_pools=n_pools, primers_per_pool=args.primers_per_pool,
                      primer_length=args.primer_length, extension_mode=args.extensions,
                      rng_seed=seed)


def _load_instance(path, space, redundancy):
    return ProblemInstance(parse_instance_text(read_text(path)), space, redundancy)


def _read_design(path):
    """(manifest, entries): the value and the line of each '# key=value'
    comment's key, the first such line winning, and the design entries."""
    comments = []
    entries = parse_design_lines(read_text(path), comments)
    manifest = {}
    for line_no, body in comments:
        key, sep, value = body.partition("=")
        if sep:
            manifest.setdefault(key.strip(), (value.strip(), line_no))
    return manifest, entries


def _setting(parse, override, manifest, key, missing):
    """parse(override) if given, even empty; else parse the manifest value,
    an error naming its line; else raise the missing error."""
    if override is not None:
        return parse(override)
    if key not in manifest:
        raise ConfigError(missing)
    value, line_no = manifest[key]
    try:
        return parse(value)
    except (ConfigError, OSError) as exc:
        raise InstanceFormatError(str(exc), line_no) from None


def _redundancy(value):
    """value as a redundancy: an integer >= 1, checked before any input is read."""
    try:
        r = int(value)
    except ValueError:
        r = 0
    if r < 1:
        raise ConfigError("redundancy must be an integer >= 1, got %r" % (value,))
    return r


def cmd_probes(args, argv):
    space = make_space(args.probes)
    lines = _manifest("probes", argv, [("probes", space.descriptor), ("size", space.size)])
    lines.append("size\t%d" % space.size)
    if args.roster:
        lines.extend("%d\t%s" % entry for entry in enumerate(space.probes()))
    _write(args.out, lines)
    return 0


def cmd_gen(args, argv):
    pools = generate_random(_random_spec(args, args.pools, args.seed))
    _write_instance(args.out, "gen", argv, pools, [("pools", len(pools))])
    return 0


def cmd_ingest(args, argv):
    pools, skipped = load_snp_table(args.infile, args.primer_length)
    _write_instance(args.out, "ingest", argv, pools,
                    [("pools", len(pools)), ("skipped", len(skipped))])
    skip_lines = ["%s\t%s" % (snp_id, reason) for snp_id, reason in skipped]
    if args.skipped:
        _write(args.skipped, _manifest("ingest skipped", argv, [("skipped", len(skipped))]) + skip_lines)
    else:
        for line in skip_lines:
            print("skipped: %s" % line.replace("\t", ": "), file=sys.stderr)
    return 0


def cmd_solve(args, argv):
    instance, result, elapsed = _run_design(args, solve)
    lines = _design_manifest("solve", argv, args, instance, [
        ("selected", result.size),
        ("pruned_empty", result.pruned_empty),
    ])
    lines.extend(result.to_lines())
    _write(args.out, lines)
    print("solve: selected %d of %d pools in %.2fs"
          % (result.size, instance.n_pools, elapsed), file=sys.stderr)
    return 0


def cmd_partition(args, argv):
    instance, report, elapsed = _run_design(args, partition, max_arrays=args.max_arrays)
    lines = _design_manifest("partition", argv, args, instance, [
        ("arrays", len(report.arrays)),
        ("covered", report.n_covered),
        ("uncovered", len(report.uncovered)),
        ("remaining", len(report.remaining)),
        ("fraction_all", "%.6f" % report.fraction_covered_all),
        ("fraction_decodable", "%.6f" % report.fraction_covered_decodable),
    ])
    for i, res in enumerate(report.arrays, start=1):
        lines.append("# array\t%d\tpools=%d" % (i, res.size))
        lines.extend(res.to_lines())
    lines.append("# coverage")
    for i, frac in coverage_curve(report):
        lines.append("%d\t%.6f" % (i, frac))
    for name, pool_ids in (("uncovered", report.uncovered), ("remaining", report.remaining)):
        if pool_ids:
            lines.append("# " + name)
            lines.extend(str(pid) for pid in pool_ids)
    _write(args.out, lines)
    print("partition: %d arrays covering %d of %d pools in %.2fs"
          % (len(report.arrays), report.n_covered, instance.n_pools, elapsed),
          file=sys.stderr)
    return 0


def cmd_verify(args, argv):
    manifest, entries = _read_design(args.infile)
    space = _setting(make_space, args.probes, manifest, "probes",
                     "no probe space: pass --probes or use a report with a manifest")
    r = _setting(_redundancy, args.redundancy, manifest, "redundancy",
                 "no redundancy: pass --redundancy or use a report with a manifest")
    instance = _load_instance(args.instance, space, r)
    result = DesignResult(tuple(entries), fingerprint=manifest.get("instance_sha256", (None,))[0])
    report = verify_design(result, instance)
    report.violations.extend(_manifest_violations(manifest, len(entries), instance.n_pools))
    lines = _manifest("verify", argv, [
        ("probes", space.descriptor),
        ("redundancy", r),
        ("instance_sha256", instance.fingerprint),
        ("checked_pools", report.checked_pools),
        ("violations", len(report.violations)),
    ])
    lines.extend(v.to_line() for v in report.violations)
    _write(args.out, lines)
    if not result.fingerprint:
        print("verify: note: the report has no instance_sha256; fingerprint check skipped",
              file=sys.stderr)
    print("verify: %d pool(s), %d violation(s)"
          % (report.checked_pools, len(report.violations)), file=sys.stderr)
    return 0 if report.ok else 1


def _manifest_violations(manifest, n_entries, n_pools):
    """Structure violations for manifest counts that the report body or
    the instance contradict; a report that states no count passes."""
    out = []
    for key, actual, what in (("selected", n_entries, "the body has %d entries"),
                              ("pools", n_pools, "the instance has %d pools")):
        stated = manifest.get(key, (None,))[0]
        if stated is not None and stated != str(actual):
            out.append(Violation(-1, KIND_STRUCTURE,
                                 "manifest states %s=%r but %s" % (key, stated, what % actual)))
    return out


def _read_edges(path):
    """The edges of a u<TAB>v edge list, in file order.

    Every vertex needs an edge, so an index below 0 or not below the number
    of edges is never valid. Such an index, a repeated edge and a fourth
    edge on one left vertex are reported at their line, before anything
    sized by an index is allocated.
    """
    lines = []
    for line_no, fields in records(read_text(path), 2):
        try:
            lines.append((line_no, int(fields[0]), int(fields[1])))
        except ValueError:
            raise InstanceFormatError("vertex indices must be integers", line_no)
    n = len(lines)
    first_line = {}  # edge -> line it first appears on, in file order
    degree = {}  # left vertex -> its edges so far
    for line_no, u, v in lines:
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError("edge (%d, %d) out of range: with %d edge(s) an index "
                                      "must lie in 0..%d" % (u, v, n, n - 1), line_no)
        if (u, v) in first_line:
            raise InstanceFormatError("duplicate edge (%d, %d) (first on line %d)"
                                      % (u, v, first_line[u, v]), line_no)
        first_line[u, v] = line_no
        degree[u] = degree.get(u, 0) + 1
        if degree[u] > 3:
            raise InstanceFormatError("left vertex %d has degree 4; need 1-3" % u, line_no)
    return list(first_line)


def cmd_reduce(args, argv):
    edges = _read_edges(args.infile)
    if not edges:
        raise ConfigError("edge list is empty")
    n_left = max(u for u, _ in edges) + 1
    n_right = max(v for _, v in edges) + 1
    graph = BipartiteGraph(n_left=n_left, n_right=n_right, edges=tuple(edges))
    instance = reduce_matching_to_design(graph)
    probes = list(instance.space.probes())
    _write(args.probes_out, _manifest("reduce probes", argv, [("size", len(probes))]) + probes)
    _write_instance(args.out, "reduce", argv, instance.pools, [
        ("left", n_left),
        ("right", n_right),
        ("word_length", len(probes[0])),
        ("probes", "list:%s" % args.probes_out),
        ("redundancy", 1),
    ])
    return 0


def cmd_bench(args, argv):
    if args.replicates < 1:
        raise ConfigError("replicates must be >= 1, got %d" % args.replicates)
    redundancies = [_redundancy(x) for x in args.redundancy.split(",")]
    algorithms = [check_algorithm(x) for x in args.algorithm.split(",")]
    spaces = [make_space(d) for d in args.probes.split(",")]
    specs = [[_random_spec(args, n, args.seed + i) for i in range(args.replicates)]
             for n in _int_list(args.pools)]
    lines = _manifest("bench", argv, [
        ("replicates", args.replicates),
        ("primer_length", args.primer_length),
        ("primers_per_pool", args.primers_per_pool),
        ("extensions", args.extensions),
        ("seed", args.seed),
    ])
    lines.append("r\tpools\talgorithm\t" + "\t".join(s.descriptor for s in spaces))
    rows = [[] for _ in redundancies]  # one block per redundancy, written r-major
    for replicate_specs in specs:
        replicate_pools = [generate_random(spec) for spec in replicate_specs]
        n = replicate_specs[0].n_pools
        for r, block in zip(redundancies, rows):
            for algorithm in algorithms:
                cells = []
                for space in spaces:
                    started = time.perf_counter()
                    sizes = [
                        solve(ProblemInstance(pools, space, r), algorithm).size
                        for pools in replicate_pools
                    ]
                    elapsed = time.perf_counter() - started
                    cells.append("%.1f" % (sum(sizes) / len(sizes)))
                    print("bench: r=%d pools=%d %s %s mean=%s (%.2fs)"
                          % (r, n, algorithm, space.descriptor, cells[-1], elapsed),
                          file=sys.stderr)
                block.append("%d\t%d\t%s\t%s" % (r, n, algorithm, "\t".join(cells)))
    lines.extend(row for block in rows for row in block)
    _write(args.out, lines)
    return 0


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError("expected a comma-separated integer list, got %r" % text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="snpmux",
        description="Design and verify multiplexed SBE genotyping assays.",
    )
    parser.add_argument("--version", action="version", version="snpmux %s" % __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options shared by several subcommands, each defined once
    def options(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    infile = options()
    infile.add_argument("--in", dest="infile", required=True)
    design = options(infile)
    design.add_argument("--probes", required=True)
    design.add_argument("--redundancy", type=int, default=1)
    design.add_argument("--algorithm", choices=ALGORITHMS, default="seq")
    primer_length = options()
    primer_length.add_argument("--primer-length", type=int, default=20)
    random_spec = options(primer_length)
    random_spec.add_argument("--primers-per-pool", type=int, choices=(1, 2), default=1)
    random_spec.add_argument("--extensions", choices=EXTENSION_MODES, default="all4")
    random_spec.add_argument("--seed", type=int, default=0)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("probes", cmd_probes, "print probe-space size and optional roster")
    p.add_argument("--probes", required=True, help="kmer:<k>, ctoken:<c>, or list:<path>")
    p.add_argument("--roster", action="store_true", help="also print every probe with its id")

    p = command("gen", cmd_gen, "generate a seeded random instance", random_spec)
    p.add_argument("--pools", type=int, required=True)

    p = command("ingest", cmd_ingest, "build an instance from a SNP flank table",
                infile, primer_length)
    p.add_argument("--skipped", help="write skipped records here instead of stderr")

    command("solve", cmd_solve, "select a decodable pool subset", design)

    p = command("partition", cmd_partition, "cover an instance with several arrays", design)
    p.add_argument("--max-arrays", type=int)

    p = command("verify", cmd_verify, "independently verify a design report")
    p.add_argument("--in", dest="infile", required=True, help="design report to check")
    p.add_argument("--instance", required=True, help="instance text the design refers to")
    p.add_argument("--probes", help="override the report manifest")
    p.add_argument("--redundancy", type=int, help="override the report manifest")

    p = command("reduce", cmd_reduce,
                "encode a bipartite matching instance as a design instance")
    p.add_argument("--in", dest="infile", required=True, help="edge list: u<TAB>v per line")
    p.add_argument("--probes-out", required=True, help="write the probe list here")

    p = command("bench", cmd_bench, "run a solver grid over seeded random instances",
                random_spec)
    p.add_argument("--pools", required=True, help="comma-separated pool counts")
    p.add_argument("--redundancy", required=True, help="comma-separated redundancies")
    p.add_argument("--probes", required=True, help="comma-separated probe spaces")
    p.add_argument("--algorithm", required=True, help="comma-separated algorithms")
    p.add_argument("--replicates", type=int, default=10)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except USAGE_ERRORS as exc:
        print("snpmux: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
