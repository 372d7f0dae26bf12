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
from .decodability import parse_design_lines, DesignResult, verify_design
from .dnaseq import SequenceError
from .instance import InstanceFormatError, ProblemInstance, fingerprint, format_instance_text, parse_instance_text
from .oracles import BipartiteGraph, reduce_matching_to_design
from .partition import coverage_curve, partition
from .probespace import ConfigError, make_space
from .solvers import ALGORITHMS, DEGREE_MODES, SolverConfig, solve

USAGE_ERRORS = (ConfigError, InstanceFormatError, SequenceError, ValueError, OSError)


def _manifest(subcommand, argv, fields):
    lines = [
        "# snpmux %s" % subcommand,
        "# version=%s" % __version__,
        "# args=%s" % " ".join(shlex.quote(a) for a in argv),
    ]
    for key, value in fields:
        if value is not None:
            lines.append("# %s=%s" % (key, value))
    return lines


def _write(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path, space, redundancy):
    with open(path) as fh:
        pools = parse_instance_text(fh.read())
    return ProblemInstance(pools, space, redundancy)


def _read_design(path):
    with open(path) as fh:
        text = fh.read()
    manifest = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") and "=" in line:
            key, _, value = line[1:].strip().partition("=")
            manifest.setdefault(key.strip(), value.strip())
    entries = parse_design_lines(text)
    return manifest, entries


def cmd_probes(args, argv):
    space = make_space(args.probes)
    lines = _manifest("probes", argv, [("probes", space.descriptor), ("size", space.size)])
    lines.append("size\t%d" % space.size)
    if args.roster:
        for pid, seq in enumerate(space.probes()):
            lines.append("%d\t%s" % (pid, seq))
    _write(args.out, lines)
    return 0


def cmd_gen(args, argv):
    spec = RandomSpec(
        n_pools=args.pools,
        primers_per_pool=args.primers_per_pool,
        primer_length=args.primer_length,
        extension_mode=args.extensions,
        rng_seed=args.seed,
    )
    pools = generate_random(spec)
    text = format_instance_text(pools)
    lines = _manifest("gen", argv, [
        ("pools", len(pools)),
        ("instance_sha256", fingerprint(text)),
    ])
    lines.extend(text.splitlines())
    _write(args.out, lines)
    return 0


def cmd_ingest(args, argv):
    pools, skipped = load_snp_table(args.infile, args.primer_length)
    text = format_instance_text(pools)
    lines = _manifest("ingest", argv, [
        ("pools", len(pools)),
        ("skipped", len(skipped)),
        ("instance_sha256", fingerprint(text)),
    ])
    lines.extend(text.splitlines())
    _write(args.out, lines)
    skip_lines = ["%s\t%s" % (snp_id, reason) for snp_id, reason in skipped]
    if args.skipped:
        _write(args.skipped, _manifest("ingest skipped", argv, [("skipped", len(skipped))]) + skip_lines)
    else:
        for line in skip_lines:
            print("skipped: %s" % line.replace("\t", ": "), file=sys.stderr)
    return 0


def cmd_solve(args, argv):
    space = make_space(args.probes)
    instance = _load_instance(args.infile, space, args.redundancy)
    config = SolverConfig(algorithm=args.algorithm, degree_mode=args.degree)
    started = time.perf_counter()
    result = solve(instance, config)
    elapsed = time.perf_counter() - started
    lines = _manifest("solve", argv, [
        ("probes", space.descriptor),
        ("redundancy", args.redundancy),
        ("algorithm", args.algorithm),
        ("degree", args.degree),
        ("instance_sha256", instance.fingerprint),
        ("pools", instance.n_pools),
        ("selected", result.size),
        ("pruned_empty", result.pruned_empty),
    ])
    lines.extend(result.to_lines())
    _write(args.out, lines)
    print("solve: selected %d of %d pools in %.2fs"
          % (result.size, instance.n_pools, elapsed), file=sys.stderr)
    return 0


def cmd_partition(args, argv):
    space = make_space(args.probes)
    instance = _load_instance(args.infile, space, args.redundancy)
    config = SolverConfig(algorithm=args.algorithm, degree_mode=args.degree)
    started = time.perf_counter()
    report = partition(instance, config, max_arrays=args.max_arrays)
    elapsed = time.perf_counter() - started
    lines = _manifest("partition", argv, [
        ("probes", space.descriptor),
        ("redundancy", args.redundancy),
        ("algorithm", args.algorithm),
        ("degree", args.degree),
        ("instance_sha256", instance.fingerprint),
        ("pools", instance.n_pools),
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
    if report.uncovered:
        lines.append("# uncovered")
        lines.extend(str(pid) for pid in report.uncovered)
    if report.remaining:
        lines.append("# remaining")
        lines.extend(str(pid) for pid in report.remaining)
    _write(args.out, lines)
    print("partition: %d arrays covering %d of %d pools in %.2fs"
          % (len(report.arrays), report.n_covered, instance.n_pools, elapsed),
          file=sys.stderr)
    return 0


def cmd_verify(args, argv):
    manifest, entries = _read_design(args.infile)
    probes = args.probes or manifest.get("probes")
    if not probes:
        raise ConfigError("no probe space: pass --probes or use a report with a manifest")
    redundancy = args.redundancy if args.redundancy is not None else manifest.get("redundancy")
    if redundancy is None:
        raise ConfigError("no redundancy: pass --redundancy or use a report with a manifest")
    space = make_space(probes)
    instance = _load_instance(args.instance, space, int(redundancy))
    result = DesignResult(tuple(entries), fingerprint=manifest.get("instance_sha256"))
    report = verify_design(result, instance)
    lines = _manifest("verify", argv, [
        ("probes", space.descriptor),
        ("redundancy", redundancy),
        ("instance_sha256", instance.fingerprint),
        ("checked_pools", report.checked_pools),
        ("violations", len(report.violations)),
    ])
    lines.extend(v.to_line() for v in report.violations)
    _write(args.out, lines)
    print("verify: %d pool(s), %d violation(s)"
          % (report.checked_pools, len(report.violations)), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_reduce(args, argv):
    edges = []
    with open(args.infile) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InstanceFormatError("expected u<TAB>v", line_no)
            try:
                edges.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise InstanceFormatError("vertex indices must be integers", line_no)
    if not edges:
        raise ConfigError("edge list is empty")
    n_left = max(u for u, _ in edges) + 1
    n_right = max(v for _, v in edges) + 1
    graph = BipartiteGraph(n_left=n_left, n_right=n_right, edges=tuple(edges))
    reduction = reduce_matching_to_design(graph)
    probe_lines = _manifest("reduce probes", argv, [("size", reduction.instance.space.size)])
    probe_lines.extend(reduction.instance.space.probes())
    _write(args.probes_out, probe_lines)
    lines = _manifest("reduce", argv, [
        ("left", n_left),
        ("right", n_right),
        ("word_length", reduction.word_length),
        ("probes", "list:%s" % args.probes_out),
        ("redundancy", 1),
        ("instance_sha256", reduction.instance.fingerprint),
    ])
    lines.extend(format_instance_text(reduction.instance.pools).splitlines())
    _write(args.out, lines)
    return 0


def cmd_bench(args, argv):
    if args.replicates < 1:
        raise ConfigError("replicates must be >= 1, got %d" % args.replicates)
    pool_counts = _int_list(args.pools)
    redundancies = _int_list(args.redundancy)
    descs = args.probes.split(",")
    algorithms = args.algorithm.split(",")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ConfigError("unknown algorithm %r" % alg)
    spaces = [make_space(d) for d in descs]
    lines = _manifest("bench", argv, [
        ("replicates", args.replicates),
        ("primer_length", args.primer_length),
        ("primers_per_pool", args.primers_per_pool),
        ("extensions", args.extensions),
        ("seed", args.seed),
    ])
    lines.append("r\tpools\talgorithm\t" + "\t".join(s.descriptor for s in spaces))
    for r in redundancies:
        for n in pool_counts:
            replicate_pools = [
                generate_random(RandomSpec(
                    n_pools=n,
                    primers_per_pool=args.primers_per_pool,
                    primer_length=args.primer_length,
                    extension_mode=args.extensions,
                    rng_seed=args.seed + i,
                ))
                for i in range(args.replicates)
            ]
            for alg in algorithms:
                config = SolverConfig(algorithm=alg, degree_mode=args.degree)
                cells = []
                for space in spaces:
                    started = time.perf_counter()
                    sizes = [
                        solve(ProblemInstance(pools, space, r), config).size
                        for pools in replicate_pools
                    ]
                    elapsed = time.perf_counter() - started
                    cells.append("%.1f" % (sum(sizes) / len(sizes)))
                    print("bench: r=%d pools=%d %s %s mean=%s (%.2fs)"
                          % (r, n, alg, space.descriptor, cells[-1], elapsed),
                          file=sys.stderr)
                lines.append("%d\t%d\t%s\t%s" % (r, n, alg, "\t".join(cells)))
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

    p = sub.add_parser("probes", help="print probe-space size and optional roster")
    p.add_argument("--probes", required=True, help="kmer:<k>, ctoken:<c>, or list:<path>")
    p.add_argument("--roster", action="store_true", help="also print every probe with its id")
    p.add_argument("--out")
    p.set_defaults(func=cmd_probes)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--pools", type=int, required=True)
    p.add_argument("--primer-length", type=int, default=20)
    p.add_argument("--primers-per-pool", type=int, choices=(1, 2), default=1)
    p.add_argument("--extensions", choices=EXTENSION_MODES, default="all4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="build an instance from a SNP flank table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--primer-length", type=int, default=20)
    p.add_argument("--skipped", help="write skipped records here instead of stderr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("solve", help="select a decodable pool subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probes", required=True)
    p.add_argument("--redundancy", type=int, default=1)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="seq")
    p.add_argument("--degree", choices=DEGREE_MODES, default="total")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("partition", help="cover an instance with several arrays")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probes", required=True)
    p.add_argument("--redundancy", type=int, default=1)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="seq")
    p.add_argument("--degree", choices=DEGREE_MODES, default="total")
    p.add_argument("--max-arrays", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="independently verify a design report")
    p.add_argument("--in", dest="infile", required=True, help="design report to check")
    p.add_argument("--instance", required=True, help="instance text the design refers to")
    p.add_argument("--probes", help="override the report manifest")
    p.add_argument("--redundancy", type=int, help="override the report manifest")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="encode a bipartite matching instance as a design instance")
    p.add_argument("--in", dest="infile", required=True, help="edge list: u<TAB>v per line")
    p.add_argument("--probes-out", required=True, help="write the probe list here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bench", help="run a solver grid over seeded random instances")
    p.add_argument("--pools", required=True, help="comma-separated pool counts")
    p.add_argument("--redundancy", required=True, help="comma-separated redundancies")
    p.add_argument("--probes", required=True, help="comma-separated probe spaces")
    p.add_argument("--algorithm", required=True, help="comma-separated algorithms")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--primer-length", type=int, default=20)
    p.add_argument("--primers-per-pool", type=int, choices=(1, 2), default=1)
    p.add_argument("--extensions", choices=EXTENSION_MODES, default="all4")
    p.add_argument("--degree", choices=DEGREE_MODES, default="total")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

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
