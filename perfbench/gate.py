"""Output checks the benchmark applies to every design it times.

These are checks on the program's outputs, kept outside the timed
region. They add what ``snpmux verify`` does not cover yet: distinct
witness ids per pool, and the cross-array invariants of a partition
report (which ``snpmux verify`` cannot parse). Each check returns a list
of problems; an empty list means the output passed.
"""

import hashlib
import json
import os
from pathlib import Path


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_sources(directory):
    """One sha256 over the names and bytes of every *.py file in directory."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_manifest(text):
    """'# key=value' header lines of a report, first occurrence wins."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") and "=" in line:
            key, _, value = line[1:].strip().partition("=")
            out.setdefault(key.strip(), value.strip())
    return out


def split_partition_report(text):
    """Split a partition report into its sections.

    Returns (arrays, coverage, uncovered, remaining): arrays is a list of
    (declared pool count, design-line text) per '# array' block; coverage
    is a list of (index, fraction text); the last two are pool-id lists.
    """
    arrays, coverage, uncovered, remaining = [], [], [], []
    section = None
    for line in text.splitlines():
        if line.startswith("# array\t"):
            _, _, pools = line.split("\t")
            arrays.append((int(pools.partition("=")[2]), []))
            section = "array"
        elif line in ("# coverage", "# uncovered", "# remaining"):
            section = line[2:]
        elif line.startswith("#") or not line:
            continue
        elif section == "array":
            arrays[-1][1].append(line)
        elif section == "coverage":
            i, frac = line.split("\t")
            coverage.append((int(i), frac))
        elif section == "uncovered":
            uncovered.append(int(line))
        elif section == "remaining":
            remaining.append(int(line))
        else:
            raise ValueError("partition report line outside any section: %r" % line)
    return [(n, "\n".join(lines)) for n, lines in arrays], coverage, uncovered, remaining


def check_witnesses(entries, r):
    """Every selected pool names at least r distinct witness ids, no repeats."""
    problems = []
    for e in entries:
        distinct = len(set(e.witnesses))
        if distinct < r or distinct != len(e.witnesses):
            problems.append("pool %d: witnesses %s are not %d distinct ids"
                            % (e.pool_id, e.witnesses, r))
    return problems


def check_partition(manifest, designs, coverage, uncovered, remaining, pool_ids):
    """Cross-array invariants of a partition report.

    designs: one list of SelectedPool entries per array, in report order.
    pool_ids: every pool id of the parent instance.
    """
    problems = []
    seen = set()
    for i, entries in enumerate(designs, start=1):
        for e in entries:
            if e.pool_id in seen:
                problems.append("pool %d appears in more than one array (again in %d)"
                                % (e.pool_id, i))
            seen.add(e.pool_id)
    others = set(uncovered) | set(remaining)
    if len(others) != len(uncovered) + len(remaining) or seen & others:
        problems.append("uncovered/remaining pools overlap each other or the arrays")
    if seen | others != set(pool_ids):
        problems.append("arrays, uncovered and remaining do not add up to the instance")
    total = len(pool_ids)
    covered = 0
    expected = []
    for i, entries in enumerate(designs, start=1):
        covered += len(entries)
        expected.append((i, "%.6f" % (covered / total if total else 1.0)))
    if coverage != expected:
        problems.append("coverage curve does not match the array sizes")
    if manifest.get("arrays") != str(len(designs)) or manifest.get("covered") != str(covered):
        problems.append("manifest arrays/covered disagree with the array blocks")
    return problems


def check_uncovered(instance, uncovered):
    """Each uncovered pool has fewer than r spectrum probes on every primer."""
    r = instance.redundancy
    space = instance.space
    return ["pool %d is marked uncovered but decodable alone" % pid
            for pid in uncovered
            if any(len(space.spectrum(p.sequence)) >= r
                   for p in instance.pool_by_id(pid).primers)]


class Ledger:
    """sha256 of every report, on disk, per key.

    The caller's key names the code (a hash of its sources), the
    workload, the pool count and the seed. A report whose hash differs
    from one recorded earlier for the same key, in this run or a previous
    run of the same code in the same checkout, is a determinism failure.
    Runs of different code never share a key, so a change that is meant
    to alter a report is not counted as one.
    """

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as fh:
                self.hashes = json.load(fh)
        except FileNotFoundError:
            self.hashes = {}

    def check(self, key, path):
        """Record the file's hash under key; return a problem or None."""
        digest = sha256_file(path)
        known = self.hashes.setdefault(key, digest)
        if known != digest:
            return "%s: sha256 %s differs from recorded %s" % (key, digest[:12], known[:12])
        return None

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.hashes, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
