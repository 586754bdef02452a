#!/usr/bin/env python3
"""Compares two sets of e2ebench results, per workload and metric.

    python3 e2ebench/compare.py BASE NEW

BASE and NEW are result records written by run.py (files, or directories
of them such as .bench_build/e2ebench/results). For each workload and
trace mode, every metric's median over the records is compared; an
end-to-end metric that is worse than the base by more than its bound in
BENCHMARK.json is flagged. Results from different host profiles (nproc,
CPU model, compiler, build type) are not compared: the script says which
field differs and exits with status 2. Nor are sets holding a record that
is not correct (correct false or a failed operation): the script names
each such record and exits with status 2. Exit status 1 flags a
regression.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROFILE_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load(path):
    paths = ([os.path.join(path, n) for n in sorted(os.listdir(path))
              if n.endswith(".json")] if os.path.isdir(path) else [path])
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def profile_of(records, label):
    """The one host profile of a record set; None (with a message) when
    the set mixes profiles."""
    profiles = {tuple(r["profile"][k] for k in PROFILE_KEYS) for r in records}
    if len(profiles) != 1:
        print(f"{label}: records come from {len(profiles)} host profiles")
        return None
    return dict(zip(PROFILE_KEYS, profiles.pop()))


def incorrect(records, label):
    """Names the records whose run was not correct; returns their count."""
    bad = [r for r in records
           if not r["result"]["correct"] or r["result"]["failed"] > 0]
    for r in bad:
        print(f"{label}: {r['workload']} seed {r['seed']} trace {r['trace']} "
              f"is not correct ({r['result']['failed']} failed)")
    return len(bad)


def medians(records):
    """(workload, trace) -> metric -> median value."""
    values = {}
    for r in records:
        group = values.setdefault((r["workload"], r["trace"]), {})
        for name, metric in r["result"]["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    return {g: {m: statistics.median(v) for m, v in ms.items()}
            for g, ms in values.items()}


def compare(base, new, spec):
    """Prints the comparison; returns the exit status."""
    base_profile = profile_of(base, "base")
    new_profile = profile_of(new, "new")
    if base_profile is None or new_profile is None:
        return 2
    if incorrect(base, "base") + incorrect(new, "new"):
        print("refusing to compare: a set holds incorrect records")
        return 2
    differing = [k for k in PROFILE_KEYS if base_profile[k] != new_profile[k]]
    if differing:
        for k in differing:
            print(f"refusing to compare: {k} differs "
                  f"({base_profile[k]!r} vs {new_profile[k]!r})")
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base_m, new_m = medians(base), medians(new)
    status = 0
    for group in sorted(set(base_m) & set(new_m)):
        print(f"{group[0]} (trace {group[1]})")
        for name in sorted(set(base_m[group]) & set(new_m[group])):
            b, n = base_m[group][name], new_m[group][name]
            change = (n - b) / b if b else 0.0
            worse = -change if better.get(name) == "higher" else change
            verdict = ""
            if name in bounds:
                verdict = "ok"
                if worse > bounds[name]["bound"]:
                    verdict = f"REGRESSION (bound {bounds[name]['bound']:.0%})"
                    status = 1
            print(f"  {name:34s} {b:14.6g} -> {n:14.6g} {change:+8.2%} {verdict}")
    return status


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return compare(load(sys.argv[1]), load(sys.argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main())
