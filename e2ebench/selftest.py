#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 e2ebench/selftest.py

1. Known-answer tests of the percentile, sample-count and open-loop
   accounting helpers (the e2e_selftest binary).
2. Same seed, same digests: two short runs of cable_study and serve_read
   with one seed print identical input and output digests; another seed
   gives different inputs.
3. compare.py refuses results from different host profiles, and sets
   holding a record that is not correct.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

failures = []


def expect(what, ok):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def digests(binary, workload, seed):
    out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170,
                         check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    expect(f"{workload} seed {seed} runs without errors",
           not record["errors"] and record["failed"] == 0)
    return record["info"]["input_digest"], record["info"]["output_digest"]


def record(profile):
    return {"workload": "cable_study", "seed": 1, "trace": 0,
            "profile": profile,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"latency_ms": {"value": 100.0, "unit": "ms"}}}}


def main():
    tests = run.build("e2e_selftest")
    expect("known-answer tests", subprocess.run([tests]).returncode == 0)

    binary = run.build()
    for workload in ("cable_study", "serve_read"):
        first = digests(binary, workload, 7)
        again = digests(binary, workload, 7)
        other = digests(binary, workload, 8)
        expect(f"{workload}: same seed, same input digest", first[0] == again[0])
        expect(f"{workload}: same seed, same output digest", first[1] == again[1])
        expect(f"{workload}: other seed, other inputs", first[0] != other[0])

    profile = {"nproc": 4, "cpu_model": "x", "compiler": "GNU 12.2.0",
               "build_type": "Release", "git_sha": "a", "source_digest": "b"}
    spec = run.load_spec()
    same = dict(profile, git_sha="c")
    expect("compare: same profile, other commit is compared",
           compare.compare([record(profile)], [record(same)], spec) == 0)
    for key in compare.PROFILE_KEYS:
        other = dict(profile, **{key: "different"})
        expect(f"compare: refuses a different {key}",
               compare.compare([record(profile)], [record(other)], spec) == 2)
    slower = record(profile)
    slower["result"]["metrics"]["latency_ms"]["value"] = 150.0
    expect("compare: flags a regression beyond the bound",
           compare.compare([record(profile)], [slower], spec) == 1)
    wrong = record(profile)
    wrong["result"]["correct"] = False
    expect("compare: refuses a set with an incorrect record",
           compare.compare([record(profile), wrong], [record(profile)],
                           spec) == 2)

    print("selftest: " + ("all passed" if not failures else
                          f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
