"""snpmux benchmark: time from instance to a verified design.

Usage (from the repository root)::

    python3 perfbench/run.py --workload partition-kmer8-r2 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

One workload runs in this process, single-threaded, with GC on; a full
collection runs before each timed command, so every command starts
from the same collector state, as a fresh ``snpmux`` process would. It
drives the user path in-process through ``snpmux.cli.main``: ``gen`` or
``ingest`` (the set-up), ``solve`` or ``partition``, and the
verification of its designs. After one set-up the workload's cycle of
these commands repeats until ``--seconds`` is spent. A cycle puts
set-ups and verifications between the solves, so every phase is sampled
across the whole run and not in one stretch of it: the speed of a shared
machine drifts over seconds. Every design passes the output gate in
gate.py and its report hashes are compared across repetitions and with
the ledger kept in the work directory, keyed by a hash of the snpmux
sources, so only runs of the same code are compared. Timings are medians
over repetitions.

With ``--trace 1`` the run alternates traced and untraced repetitions:
traced ones record spans (spans.py) around every snpmux layer, the
per-layer metrics come from those spans, and the tracing overhead is
the difference of the two kinds' median design time.

``--workload all`` runs every workload in its own process, one after
the other. The last line of standard output is one JSON object.
"""

import argparse
import gc
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_build") / "perfbench"

MIN_CYCLES = 3
PRIMER_LENGTH = 20
FLANK = 30  # SNP-table flank length; longer than one primer window


@dataclass(frozen=True)
class Workload:
    name: str
    pools: int
    source: str  # "gen" or "ingest"
    command: str  # "solve" or "partition"
    probes: str
    redundancy: int
    algorithm: str
    cycle: tuple  # commands of one cycle, in order, after the run's first set-up


# Pool counts fit eight or more cycles into one run of BENCHMARK.json's
# run_seconds (60 s) on a 2-core machine. A cycle verifies twice where
# verification is short next to the solve, and sets up twice where the
# verification is long; NOTES.md says why each workload is in the set.
WORKLOADS = {w.name: w for w in (
    Workload("snp-ctoken13-seq", 10000, "ingest", "solve", "ctoken:13", 2, "seq",
             ("solve", "setup", "verify", "setup")),
    Workload("partition-kmer8-r2", 12000, "gen", "partition", "kmer:8", 2, "minprobe",
             ("solve", "verify", "setup", "verify")),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "verify_s": "s", "design_s": "s",
    "peak_rss_mb": "MB", "selected_pools": "count", "arrays": "count",
}


def unit_of(name):
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    return "count"


def load_snpmux():
    """Import snpmux from this checkout's src/, never from elsewhere."""
    if not (SRC / "snpmux" / "__init__.py").is_file():
        raise SystemExit("perfbench: no snpmux sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import snpmux
    if Path(snpmux.__file__).resolve().parent != SRC / "snpmux":
        raise SystemExit("perfbench: imported snpmux from %s, not %s" % (snpmux.__file__, SRC))
    import snpmux.cli
    return snpmux


def ledger_key(workload, code, pools, seed):
    """Ledger key prefix: reports compare only between runs of the same code."""
    return "%s/code=%s/pools=%d/seed=%d" % (workload, code[:16], pools, seed)


def write_snp_table(path, n, seed):
    """Seeded synthetic SNP flank table; about 1% of records get skipped."""
    rng = random.Random(seed)
    with open(path, "w") as fh:
        fh.write("id\tleft_flank\talleles\tright_flank\n")
        for i in range(n):
            left = rng.choices("ACGT", k=FLANK)
            right = "".join(rng.choices("ACGT", k=FLANK))
            if rng.random() < 0.01:  # ambiguity code inside the primer window
                left[FLANK - 1 - rng.randrange(PRIMER_LENGTH)] = "N"
            alleles = "".join(rng.sample("ACGT", 2))
            fh.write("rs%d\t%s\t%s\t%s\n" % (i, "".join(left), alleles, right))


class Pipeline:
    """The user path for one workload, its output gate and its hashes."""

    def __init__(self, workload, seed, work, pools=None):
        load_snpmux()
        import snpmux.cli as cli
        import snpmux.decodability as decodability
        import snpmux.probespace as probespace
        self.cli, self.decodability, self.probespace = cli, decodability, probespace
        # Bound now, before a tracer rebinds the module names: the gate's
        # own parsing must stay out of the spans.
        self.parse_design = decodability.parse_design_lines
        self.w = workload
        self.seed = seed
        self.n = pools or workload.pools
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.inst = str(work / "instance.txt")
        self.design = str(work / "design.txt")
        self.vreport = str(work / "verify.txt")
        self.table = str(work / "snps.tsv")
        self.ledger = gate.Ledger(str(work.parent / "ledger.json"))
        self.code = gate.sha256_sources(SRC / "snpmux")
        self.key = ledger_key(workload.name, self.code, self.n, seed)
        if workload.source == "ingest":
            write_snp_table(self.table, self.n, seed)

    def _main(self, argv):
        rc = self.cli.main(argv)
        return ["snpmux %s exited %d" % (argv[0], rc)] if rc else []

    def setup(self):
        """Run gen/ingest; returns (seconds, problems)."""
        if self.w.source == "gen":
            argv = ["gen", "--pools", str(self.n), "--primers-per-pool", "2",
                    "--primer-length", str(PRIMER_LENGTH), "--extensions", "all4",
                    "--seed", str(self.seed), "--out", self.inst]
        else:
            argv = ["ingest", "--in", self.table, "--primer-length", str(PRIMER_LENGTH),
                    "--skipped", str(self.work / "skipped.txt"), "--out", self.inst]
        gc.collect()
        started = time.perf_counter()
        problems = self._main(argv)
        elapsed = time.perf_counter() - started
        problems += filter(None, [self.ledger.check(self.key + "/instance", self.inst)])
        return elapsed, problems

    def timed(self, phase):
        """One command of the cycle, timed; returns (seconds, problems).

        A verification's problems include the output gate's on the design
        it verified, and its pool and array counts are kept.
        """
        if phase == "setup":
            return self.setup()
        gc.collect()
        started = time.perf_counter()
        result = self.solve() if phase == "solve" else self.verify()
        elapsed = time.perf_counter() - started
        if phase == "solve":
            return elapsed, result
        problems, self.selected, self.arrays = self.check(result)
        return elapsed, problems

    def solve(self):
        w = self.w
        return self._main([w.command, "--in", self.inst, "--probes", w.probes,
                           "--redundancy", str(w.redundancy), "--algorithm", w.algorithm,
                           "--out", self.design])

    def verify(self):
        """Verify the design the way a user would.

        Returns the problems of the `snpmux verify` command for a single
        design, or for a partition report its parsed and verified arrays.
        """
        if self.w.command == "solve":
            return self._main(["verify", "--in", self.design, "--instance", self.inst,
                               "--out", self.vreport])
        return self._verify_partition()

    def _verify_partition(self):
        # `snpmux verify` cannot read partition reports, so each array is
        # checked with the same library calls it makes, against the parent.
        cli, dec = self.cli, self.decodability
        with open(self.design) as fh:
            text = fh.read()
        manifest = gate.read_manifest(text)
        arrays, coverage, uncovered, remaining = gate.split_partition_report(text)
        space = self.probespace.make_space(manifest["probes"])
        with open(self.inst) as fh:
            pools = cli.parse_instance_text(fh.read())
        instance = cli.ProblemInstance(pools, space, int(manifest["redundancy"]))
        designs, reports = [], []
        for _, block in arrays:
            entries = dec.parse_design_lines(block)
            result = dec.DesignResult(tuple(entries), fingerprint=manifest["instance_sha256"])
            reports.append(dec.verify_design(result, instance))
            designs.append(entries)
        return (manifest, arrays, coverage, uncovered, remaining, instance, designs, reports)

    def check(self, verified):
        """Output gate for one design repetition; returns (problems, selected, arrays)."""
        r = self.w.redundancy
        with open(self.design) as fh:
            text = fh.read()
        manifest = gate.read_manifest(text)
        problems = [p for p in [self.ledger.check(self.key + "/design", self.design)] if p]
        if self.w.command == "solve":
            problems += verified
            with open(self.vreport) as fh:
                vmanifest = gate.read_manifest(fh.read())
            entries = self.parse_design(text)
            if vmanifest.get("violations") != "0":
                problems.append("verify reported %s violation(s)" % vmanifest.get("violations"))
            if not (vmanifest.get("checked_pools") == manifest.get("selected") == str(len(entries))):
                problems.append("selected/checked pool counts disagree")
            problems += gate.check_witnesses(entries, r)
            problems += filter(None, [self.ledger.check(self.key + "/verify", self.vreport)])
            return problems, len(entries), 1
        _, arrays, coverage, uncovered, remaining, instance, designs, reports = verified
        for i, ((declared, _), entries, rep) in enumerate(zip(arrays, designs, reports), 1):
            if rep.violations or rep.checked_pools != declared or len(entries) != declared:
                problems.append("array %d: %d violation(s), %d of %d pools checked"
                                % (i, len(rep.violations), rep.checked_pools, declared))
            problems += gate.check_witnesses(entries, r)
        pool_ids = [p.id for p in instance.pools]
        problems += gate.check_partition(manifest, designs, coverage, uncovered,
                                         remaining, pool_ids)
        problems += gate.check_uncovered(instance, uncovered)
        return problems, sum(len(e) for e in designs), len(designs)

    def design_rep(self):
        """solve + verify, timed, then the gate; returns a dict."""
        gc.collect()
        t0 = time.perf_counter()
        problems = self.solve()
        t1 = time.perf_counter()
        verified = self.verify()
        t2 = time.perf_counter()
        more, _, _ = self.check(verified)
        return {"design_s": t2 - t0, "problems": problems + more}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, work, pools=None, out=sys.stdout):
    """Run one workload; returns the result object printed as the last line."""
    started = time.perf_counter()
    pipe = Pipeline(WORKLOADS[name], seed, work / name, pools)
    attempted = failed = 0
    problems = []

    def account(found):
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)

    if trace:
        metrics = _traced_reps(pipe, started, seconds, account, work / name)
        print("%s seed=%d pools=%d: traced run, spans in %s"
              % (name, seed, pipe.n, work / name / "spans.tsv"), file=out)
        for key, value in metrics.items():
            print("  %-36s %14.6f %s" % (key, value, unit_of(key)), file=out)
    else:
        times = {"setup": [], "solve": [], "verify": []}
        elapsed, found = pipe.setup()
        times["setup"].append(elapsed)
        account(found)
        cycle, last = pipe.w.cycle, {}
        for i in itertools.count():
            phase = cycle[i % len(cycle)]
            # The run stops before the first command that would not end
            # in time; a solve counts together with the verification after it.
            upto = i
            while phase == "solve" and cycle[upto % len(cycle)] != "verify":
                upto += 1
            need = sum(last.get(cycle[j % len(cycle)], 0.0) for j in range(i, upto + 1))
            if i >= MIN_CYCLES * len(cycle) and time.perf_counter() - started + need > seconds:
                break
            elapsed, found = pipe.timed(phase)
            times[phase].append(elapsed)
            account(found)
            last[phase] = elapsed
        metrics = {"%s_s" % k: _median(v) for k, v in times.items()}
        metrics["design_s"] = metrics["solve_s"] + metrics["verify_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["selected_pools"], metrics["arrays"] = pipe.selected, pipe.arrays
        print("%s seed=%d pools=%d: set-up, then %d commands in cycles of %s"
              % (name, seed, pipe.n, i, " ".join(cycle)), file=out)
        for phase, values in times.items():
            print("  %-16s %10.4f s   median of %d, min %.4f, max %.4f"
                  % (phase + "_s", metrics[phase + "_s"], len(values), min(values),
                     max(values)), file=out)
        for key in ("design_s", "peak_rss_mb", "selected_pools", "arrays"):
            print("  %-16s %10.4f %s" % (key, metrics[key], unit_of(key)), file=out)
    pipe.ledger.save()
    print("  %-16s %10.4f     %d failed of %d attempted"
          % ("failure_rate", failed / attempted, failed, attempted), file=out)
    print("  sha256 of src/snpmux/*.py %s" % pipe.code, file=out)
    for key in sorted(k for k in pipe.ledger.hashes if k.startswith(pipe.key + "/")):
        print("  sha256 %s %s" % (key, pipe.ledger.hashes[key]), file=out)
    for p in problems[:20]:
        print("  FAILED: %s" % p, file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def _traced_reps(pipe, started, seconds, account, work):
    """Alternate traced (set-up + design) and untraced (design) repetitions."""
    tracer = spans.Tracer()
    traced, untraced = [], []
    durations = {True: 0.0, False: 0.0}
    while True:
        is_traced = len(traced) <= len(untraced)
        t0 = time.perf_counter()
        if is_traced:
            tracer.run_id = len(traced) + 1
            spans.install(tracer)
            try:
                with tracer.span("cli." + pipe.w.source):
                    elapsed, found = pipe.setup()
                account(found)
                gc.collect()
                t1 = time.perf_counter()
                with tracer.span("cli." + pipe.w.command):
                    problems = pipe.solve()
                verified = _traced_verify(pipe, tracer)
                design_s = time.perf_counter() - t1
            finally:
                tracer.close()
            more, _, _ = pipe.check(verified)
            account(problems + more)
            traced.append(design_s)
        else:
            rep = pipe.design_rep()
            account(rep["problems"])
            untraced.append(rep["design_s"])
        durations[is_traced] = time.perf_counter() - t0
        spent = time.perf_counter() - started
        if (len(traced) >= 2 and untraced
                and spent + durations[len(traced) <= len(untraced)] > seconds):
            break
    tracer.write(str(work / "spans.tsv"))
    per_run = [spans.layer_metrics([sp for sp in tracer.spans if sp[1] == k])
               for k in range(1, len(traced) + 1)]
    metrics = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        metrics[key] = max(values) if key.endswith("_rss_mb") else _median(values)
    base = _median(untraced)
    metrics["trace.overhead_s"] = _median(traced) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
    metrics["cli.report_bytes"] = os.path.getsize(pipe.design)
    metrics["trace.spans"] = _median([sum(1 for sp in tracer.spans if sp[1] == k)
                                      for k in range(1, len(traced) + 1)])
    return metrics


def _traced_verify(pipe, tracer):
    name = "cli.verify" if pipe.w.command == "solve" else "bench.verify_partition"
    with tracer.span(name):
        return pipe.verify()


def run_all(args):
    """Each workload in a fresh process, sequentially; relay their output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit("perfbench: workload %s exited %d" % (name, proc.returncode))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, key)] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    load_snpmux()
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, WORK)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
