"""Self-test of the benchmark at small sizes: ``python3 perfbench/run.py --self-test``.

Checks that
- every end-to-end and per-layer metric of BENCHMARK.json is reported,
  with its unit, for every workload;
- the output gates pass on real outputs and fire on a deliberately wrong
  reference, a flipped decision, a changed probe verdict, a wrong digest
  and a wrong exact value;
- spans nest (each child within its parent, every self time >= 0), and
  two traced runs of the same code give identical counts and hit ratio.
"""

import copy
import math
import os
import sys

import run
from workloads import WORKLOADS

EXACT_KINDS = ("calls", "cells", "probe_raised", "hit_ratio")


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def _check_reported(failures, name, doc, spec):
    _expect(failures, doc["correct"], f"{name}: gates failed on real outputs")
    _expect(failures, set(doc["metrics"]) == {m for m, _ in spec},
            f"{name}: metrics {sorted(doc['metrics'])} != {sorted(m for m, _ in spec)}")
    for metric, unit in spec:
        got = doc["metrics"].get(metric, {})
        _expect(failures, got.get("unit") == unit and isinstance(got.get("value"), (int, float))
                and math.isfinite(got["value"]), f"{name}: {metric} missing or without unit {unit}")


def _check_gates_fire(failures, name, reference):
    """The gates accept the observed outputs and reject corrupted ones."""
    seed = reference["seed"]
    measured = run.measure([name], seed, 0, small=True)[name]
    if WORKLOADS[name]["kind"] == "verify":
        _expect(failures, not run.check_verify(name, measured, reference),
                f"{name}: gate rejects the recorded digests")
        wrong = copy.deepcopy(reference)
        suite = measured["children"][0]["suites"][0]["suite"]
        wrong["workloads"][name]["digests"][suite] = "0" * 64
        _expect(failures, run.check_verify(name, measured, wrong),
                f"{name}: gate accepts a wrong digest")
        bad_exit = copy.deepcopy(measured)
        bad_exit["children"][0]["suites"][0]["exit"] = 4
        _expect(failures, run.check_verify(name, bad_exit, reference),
                f"{name}: gate accepts a suite that exited 4")
        return
    observed = {",".join(map(str, r["instance"])): r["members"]
                for r in measured["children"][0]["instances"]}
    right = copy.deepcopy(reference)
    right["workloads"][name]["members"] = observed
    _expect(failures, not run.check_mc(name, measured, seed, right, small=False),
            f"{name}: gate rejects the observed member counts")
    wrong = copy.deepcopy(right)
    key = next(iter(observed))
    wrong["workloads"][name]["members"][key] += 1
    _expect(failures, run.check_mc(name, measured, seed, wrong, small=False),
            f"{name}: gate accepts a wrong member count")
    flipped = copy.deepcopy(measured)
    g = next(g for g in flipped["gate"]["gate"]
             if any(f is not None and d is not None for f, d in zip(g["fast"], g["direct"])))
    j = next(j for j, (f, d) in enumerate(zip(g["fast"], g["direct"]))
             if f is not None and d is not None)
    g["fast"][j] = not g["fast"][j]
    _expect(failures, run.check_mc(name, flipped, seed, right, small=False),
            f"{name}: gate accepts routes that disagree")
    if "probe" in measured["gate"]:
        changed = copy.deepcopy(right)
        probe = changed["workloads"][name]["probe"]
        j = next(j for j, v in enumerate(probe["verdicts"]) if v != "x")
        probe["verdicts"] = (probe["verdicts"][:j] + "01"[probe["verdicts"][j] == "0"]
                             + probe["verdicts"][j + 1:])
        _expect(failures, run.check_mc(name, measured, seed, changed, small=False),
                f"{name}: gate accepts a changed probe verdict")
    skewed = copy.deepcopy(measured)
    for r in skewed["children"][0]["instances"]:
        r["exact"] = [1, 1000]
    _expect(failures, run.check_mc(name, skewed, seed, right, small=False),
            f"{name}: gate accepts a proportion far from the exact value")


def _check_trace(failures, name, per_layer):
    first, details = run.run_benchmark([name], 42, 0, trace=1, small=True)
    _check_reported(failures, f"{name} (trace)", first, per_layer)
    children = details[name]["children"]
    _expect(failures, children[1].get("nesting_errors") == 0 and children[1].get("spans", 0) > 0,
            f"{name}: spans missing or not nested")
    second, _ = run.run_benchmark([name], 42, 0, trace=1, small=True)
    for metric, _ in per_layer:
        if metric.rpartition(".")[2] in EXACT_KINDS:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            _expect(failures, a == b, f"{name}: {metric} differs between traced runs ({a} vs {b})")


def self_test():
    reference = run.load_json(os.path.join(run.HERE, "reference.json"))
    end_to_end, per_layer = run.spec_metrics("end_to_end"), run.spec_metrics("per_layer")
    failures = []
    for name in WORKLOADS:
        doc, _ = run.run_benchmark([name], 42, 0, trace=0, small=True)
        _check_reported(failures, name, doc, end_to_end)
        _check_gates_fire(failures, name, reference)
        _check_trace(failures, name, per_layer)
    for f in failures:
        sys.stderr.write(f"SELF-TEST FAILED: {f}\n")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0
