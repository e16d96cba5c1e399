"""The nicensus benchmark: cold-process workloads, output gates, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, interleaved
    python3 perfbench/run.py --self-test        # small sizes, checks the harness

Every measured unit is a fresh child interpreter (perfbench/child.py),
run one at a time, so each pays the cold cost of a CLI invocation.

With ``--trace 0`` a run first starts an untimed gate child (mc workloads;
on mc-large-field it also runs the known-defect probe),
then starts measured children, each on the next chunk of the seed's
inputs, until the next one would end after ``--seconds``, and fills the
rest with set-up-only children.  With several workloads the children
alternate between workloads, so that drift in host speed lands on all of
them alike.  Times are at the reference speed of hostspeed.py.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric of BENCHMARK.json; a human-readable table goes to stderr.

With ``--trace 1`` a run measures chunk 0 three times: without wrappers
("plain"), with spans around every public layer function ("traced"), and
with gf element-op counters ("count").  It prints every per-layer metric
of BENCHMARK.json; ``trace.overhead_s`` is traced minus plain wall time,
and ``poly.irr_enumerate.probe_raised`` comes from the gate child's probe.

Every run checks the outputs (see ``check_mc`` and ``check_verify``) and
exits 1 on any mismatch.  Details, the span tree and the raw spans are
written under perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150
Z_GATE = 5.0  # sampled proportion must lie within 5 sigma of the exact one


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spec_metrics(kind):
    """(name, unit) pairs of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    return [(m["name"], m["unit"]) for m in load_json(os.path.join(ROOT, "BENCHMARK.json"))[kind]]


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def spawn(name, seed, chunk, mode, small, spans_path=None):
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
           "--seed", str(seed), "--chunk", str(chunk), "--mode", mode]
    if small:
        cmd.append("--small")
    if spans_path:
        cmd += ["--spans", spans_path]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {name} chunk {chunk} ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=name, chunk=chunk, mode=mode, process_s=elapsed)
    return result


def measure(names, seed, seconds, small):
    """Gate children, then measured children round-robin until each workload's time is used.

    The time left when the next measured child would overrun is filled with
    set-up-only children, which add samples to ``setup_s``.
    """
    runs = {n: {"gate": None, "children": [], "setups": []} for n in names}
    for n in names:
        if WORKLOADS[n]["kind"] == "mc":
            runs[n]["gate"] = spawn(n, seed, 0, "gate", small)
    used = {n: 0.0 for n in names}
    for mode, key in (("plain", "children"), ("setup", "setups")):
        # A set-up-only child costs about a measured one minus its timed region.
        active = [n for n in names if mode == "plain" or used[n] + min(
            c["process_s"] - c["raw_wall_s"] for c in runs[n]["children"]) <= seconds]
        while active:
            for n in list(active):
                done = runs[n][key]
                child = spawn(n, seed, len(done), mode, small)
                done.append(child)
                used[n] += child["process_s"]
                if used[n] + child["process_s"] > seconds:
                    active.remove(n)
    return runs


def measure_trace(name, seed, small):
    """Chunk 0 plain, traced and counted, plus the gate child."""
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{name}-s{seed}.spans.json.gz")
    gate = spawn(name, seed, 0, "gate", small) if WORKLOADS[name]["kind"] == "mc" else None
    plain = spawn(name, seed, 0, "plain", small)
    traced = spawn(name, seed, 0, "traced", small, spans_path)
    count = spawn(name, seed, 0, "count", small)
    return {"gate": gate, "children": [plain, traced, count]}


# ---------------------------------------------------------------------------
# Output gates
# ---------------------------------------------------------------------------


def check_mc(name, run, seed, reference, small):
    """Errors in the outputs of an mc run (an empty list means correct).

    - chunk 0 at the reference seed: member counts equal the recorded ones
      (a sample that raised counts as failed, never as a non-member);
    - children that ran the same chunk agree exactly;
    - pooled over distinct chunks, members/attempted and
      (members + failed)/attempted bracket the exact proportion within
      Z_GATE standard deviations;
    - gate child: both membership routes agree wherever both decide.
    """
    errors = []
    ref = reference["workloads"][name]
    by_chunk = {}
    for child in run["children"]:
        key = json.dumps(child["instances"], sort_keys=True)
        by_chunk.setdefault(child["chunk"], set()).add(key)
        if child["chunk"] == 0 and seed == reference["seed"] and not small:
            got = {",".join(map(str, r["instance"])): r["members"] for r in child["instances"]}
            if got != ref["members"]:
                errors.append(f"{name}: members {got} != reference {ref['members']} "
                              f"(seed {seed}, chunk 0, {child['mode']})")
    for chunk, outputs in by_chunk.items():
        if len(outputs) > 1:
            errors.append(f"{name}: children disagree on chunk {chunk}")
    pooled = {}
    for chunk in sorted(by_chunk):
        child = next(c for c in run["children"] if c["chunk"] == chunk)
        for r in child["instances"]:
            acc = pooled.setdefault(tuple(r["instance"]), {"n": 0, "members": 0, "failed": 0,
                                                           "exact": r["exact"]})
            acc["n"] += r["hi"] - r["lo"]
            acc["members"] += r["members"]
            acc["failed"] += r["failed"]
    for inst, acc in pooled.items():
        p = acc["exact"][0] / acc["exact"][1]
        slack = Z_GATE * math.sqrt(p * (1 - p) / acc["n"])
        low, high = acc["members"] / acc["n"], (acc["members"] + acc["failed"]) / acc["n"]
        if low > p + slack or high < p - slack:
            errors.append(f"{name} {inst}: sampled proportion [{low:.4f}, {high:.4f}] "
                          f"is more than {Z_GATE} sigma from exact {p:.4f} (n={acc['n']})")
    gate = run["gate"]
    if gate is not None:
        for g in gate["gate"]:
            pairs = [(f, d) for f, d in zip(g["fast"], g["direct"])
                     if f is not None and d is not None]
            if not pairs:
                errors.append(f"{name} {g['instance']}: no sample decided by both routes")
            for j, (f, d) in enumerate(zip(g["fast"], g["direct"])):
                if f is not None and d is not None and f != d:
                    errors.append(f"{name} {g['instance']} sample {j}: charpoly route {f}, "
                                  f"blow-up route {d}")
        if "probe" in gate:
            errors += check_probe(name, gate["probe"], ref["probe"])
    return errors


def check_probe(name, probe, ref):
    """Errors in the known-defect probe against its recorded verdicts.

    A sample decided in the reference must get the same verdict.  A sample
    that raised in the reference may now be decided (a fix of the defect),
    but then the direct route must agree wherever it decides.
    """
    errors = []
    got, want = probe["verdicts"], ref["verdicts"]
    if len(got) > len(want):
        errors.append(f"{name} probe: {len(got)} samples, reference has {len(want)}")
    for j, (g, w) in enumerate(zip(got, want)):
        if w != "x" and g != w:
            errors.append(f"{name} probe {probe['instance']} sample {j}: verdict {g}, "
                          f"reference {w}")
        elif w == "x" and g != "x":
            d = probe["direct"].get(str(j))
            if d is not None and d != (g == "1"):
                errors.append(f"{name} probe {probe['instance']} sample {j}: charpoly route "
                              f"{g}, blow-up route {d}")
    return errors


def check_verify(name, run, reference):
    """Errors in a verify-exact run: every suite exits 0 with its recorded digest."""
    errors = []
    ref = reference["workloads"][name]["digests"]
    for child in run["children"]:
        for s in child["suites"]:
            if s["exit"] != 0:
                errors.append(f"{name}: suite {s['suite']} exited {s['exit']}")
            if s["digest"] != ref.get(s["suite"]):
                errors.append(f"{name}: suite {s['suite']} digest {s['digest']} "
                              f"!= reference {ref.get(s['suite'])}")
    return errors


def check(name, run, seed, reference, small):
    if WORKLOADS[name]["kind"] == "mc":
        return check_mc(name, run, seed, reference, small)
    return check_verify(name, run, reference)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(children, setups=()):
    ops = sorted(t for c in children for t in c["op_ns"])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    setups = list(children) + list(setups)
    return {
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "op_p50_us": percentile(ops, 50) / 1e3,
        "op_p99_us": percentile(ops, 99) / 1e3,
        "decided_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }, {"children": len(children), "setup_samples": len(setups), "ops": len(ops),
        "attempted": attempted, "failed": failed,
        "raw_wall_s": statistics.median(c["raw_wall_s"] for c in children),
        "raw_setup_s": statistics.median(c["raw_setup_s"] for c in setups)}


def probe_raised(run):
    """Probe samples that raised in poly.irr_enumerate; 0 without a probe."""
    probe = run["gate"] and run["gate"].get("probe")
    return probe["irr_raised"] if probe else 0


def per_layer(run):
    plain, traced, count = run["children"]
    out = dict(traced["layer"])
    out.update(count["layer"])
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["poly.irr_enumerate.probe_raised"] = probe_raised(run)
    return out


def with_units(values, spec):
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def print_table(name, metrics, counts, probe):
    err = sys.stderr
    err.write(f"\n{name}: {counts}\n")
    for key, m in metrics.items():
        err.write(f"  {key:40s} {m['value']:>16.6g} {m['unit']}\n")
    if "decided_frac" in metrics:
        err.write(f"  {'fail_frac':40s} {1 - metrics['decided_frac']['value']:>16.6g} ratio "
                  f"({counts['failed']} of {counts['attempted']} operations raised)\n")
    if probe:
        c, q, b = probe["instance"]
        err.write(f"  known defect: {probe['verdicts'].count('x')} of {len(probe['verdicts'])} "
                  f"samples of M({c}, F_{q}^{b}) at seed {probe['seed']} raise "
                  f"({probe['irr_raised']} BudgetExceeded in poly.irr_enumerate), untimed\n")


def summarize(child):
    """A child result without its bulky per-operation times."""
    return {k: v for k, v in child.items() if k not in ("op_ns", "tree")}


def run_benchmark(names, seed, seconds, trace, small=False):
    """Measure, check and report; returns (document, per-workload details)."""
    reference = load_json(os.path.join(HERE, "reference.json"))
    if trace:
        runs = {n: measure_trace(n, seed, small) for n in names}
    else:
        runs = measure(names, seed, seconds, small)
    details = {}
    errors = []
    for n in names:
        run = runs[n]
        errs = check(n, run, seed, reference, small)
        if trace:
            _, counts = end_to_end(run["children"][:1])
            values, spec = per_layer(run), spec_metrics("per_layer")
            nest = sum(c.get("nesting_errors", 0) for c in run["children"])
            if nest:
                errs.append(f"{n}: {nest} spans do not nest in their parent")
        else:
            values, counts = end_to_end(run["children"], run["setups"])
            spec = spec_metrics("end_to_end")
        errors += errs
        metrics = with_units(values, spec)
        details[n] = {"metrics": metrics, "counts": counts, "errors": errs,
                      "gate": run["gate"] and run["gate"]["gate"],
                      "probe": run["gate"] and run["gate"].get("probe"),
                      "children": [summarize(c) for c in run["children"] + run.get("setups", [])],
                      "tree": next((c["tree"] for c in run["children"] if "tree" in c), None)}
        print_table(n, metrics, counts, run["gate"] and run["gate"].get("probe"))
    attempted = sum(d["counts"]["attempted"] for d in details.values())
    failed = sum(d["counts"]["failed"] for d in details.values())
    if len(names) == 1:
        metrics = details[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, d in details.items() for k, v in d["metrics"].items()}
    doc = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    for e in errors:
        sys.stderr.write(f"GATE FAILED: {e}\n")
    return doc, details


def write_details(names, seed, trace, details):
    os.makedirs(OUT, exist_ok=True)
    label = "all" if len(names) > 1 else names[0]
    path = os.path.join(OUT, f"{label}-s{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "trace": trace, "environment": environment(),
                   "workloads": details}, fh, indent=1)
        fh.write("\n")
    for n, d in details.items():
        if d["tree"]:
            sys.stderr.write(f"\n{n}: span tree (top 15 paths by time)\n")
            for node in d["tree"][:15]:
                sys.stderr.write(f"  {node['s']:9.4f}s self {node['self_s']:9.4f}s "
                                 f"x{node['calls']:<8d} {node['path']}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        from selftest import self_test
        return self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    doc, details = run_benchmark(names, args.seed, args.seconds, args.trace)
    write_details(names, args.seed, args.trace, details)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
