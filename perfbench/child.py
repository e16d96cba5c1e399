"""One measured process of the benchmark: set up, run one chunk, report.

Run by run.py as a fresh interpreter, one at a time, so that every child
pays the cold cost a CLI user pays: the module-level memos of nicensus
(field, modulus, embedding, tower, member and irreducible caches) start
empty.  The child prints one JSON object on stdout.

    python3 perfbench/child.py --workload NAME --seed N --chunk I
                               --mode {plain,traced,count,setup,gate} [--small]
                               [--spans PATH]

Modes: ``plain`` times the chunk; ``traced`` records spans around every
public layer function; ``count`` counts gf element operations in the
timed region; ``setup`` only sets up; ``gate`` re-decides a prefix of each
mc instance with both membership routes, runs the workload's known-defect
probe if it has one, and does no timing.
"""

import time

import hostspeed

SAMPLER = hostspeed.SpeedSampler()
SAMPLER.start()
T0 = time.perf_counter_ns()  # before nicensus is imported: the start of setup

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
from workloads import workload  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_nicensus():
    """Import nicensus from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nicensus
    import nicensus.cli  # noqa: F401
    if not os.path.abspath(nicensus.__file__).startswith(src + os.sep):
        raise SystemExit(f"nicensus imported from {nicensus.__file__}, not {src}")
    return nicensus


def build_instance(nc, c, q, b):
    """Field, tower and exact closed-form proportion of one mc instance."""
    ((p, m),) = nc.gf.factor_int(q).items()
    ext = nc.gf.field_create(p, m * b)
    return {"c": c, "q": q, "b": b, "ext": ext, "tower": nc.embed.tower_for(ext, b),
            "exact": nc.quokka.thm_pc_m_exact(c, q, b)}


def build_instances(nc, spec):
    return [build_instance(nc, *inst) for inst in spec["instances"]]


def decide(nc, X, tower):
    """Fast-route decision, or None when it raises a NicensusError."""
    try:
        return bool(nc.embed.pc_member_charpoly(X, tower))
    except nc.errors.NicensusError:
        return None


class Timer:
    """Start and end of every operation of the timed region.

    ``start`` ends set-up; ``op`` times one call; ``result`` reports raw
    times and times at the reference speed of hostspeed.
    """

    def __init__(self, on_start=None):
        self.on_start = on_start
        self.ops = []

    def start(self):
        if self.on_start:
            self.on_start()
        self.setup_end = time.perf_counter_ns()

    def op(self, fn, *args):
        t = time.perf_counter_ns()
        out = fn(*args)
        self.ops.append((t, time.perf_counter_ns()))
        return out

    def result(self):
        end = time.perf_counter_ns()
        SAMPLER.stop()
        op_ns = [SAMPLER.normalize(t0, t1) for t0, t1 in self.ops]
        return {"setup_s": SAMPLER.normalize(T0, self.setup_end) / 1e9,
                "raw_setup_s": (self.setup_end - T0) / 1e9,
                "wall_s": sum(op_ns) / 1e9, "raw_wall_s": (end - self.setup_end) / 1e9,
                "op_ns": op_ns, "slices": len(SAMPLER.cal)}


def run_mc(nc, spec, seed, chunk, timer):
    insts = build_instances(nc, spec)
    lo, hi = chunk * spec["chunk"], (chunk + 1) * spec["chunk"]
    sample = nc.estimate.sample_matrix
    per_instance = []
    timer.start()
    for inst in insts:
        c, ext, tower = inst["c"], inst["ext"], inst["tower"]
        members = failed = 0

        def draw_and_decide(j):
            return decide(nc, sample(c, ext, seed, j), tower)

        for j in range(lo, hi):
            verdict = timer.op(draw_and_decide, j)
            if verdict is None:
                failed += 1
            elif verdict:
                members += 1
        per_instance.append({"instance": [inst["c"], inst["q"], inst["b"]],
                             "lo": lo, "hi": hi, "members": members, "failed": failed,
                             "exact": [inst["exact"].numerator, inst["exact"].denominator]})
    result = timer.result()
    result.update(attempted=len(result["op_ns"]),
                  failed=sum(r["failed"] for r in per_instance), instances=per_instance)
    return result


def run_verify(nc, spec, seed, timer):
    suites = []
    timer.start()
    for name in spec["suites"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = timer.op(nc.cli.main, ["verify", "--suite", name, "--seed", str(seed)])
        doc = json.loads(buf.getvalue())
        checks = doc["result"]["checks"]
        suites.append({"suite": name, "exit": code, "digest": doc["manifest"]["digest"],
                       "checks": len(checks),
                       "not_passed": sum(1 for c in checks if c["status"] != "pass")})
    result = timer.result()
    # One operation is the pass over all suites: the suites differ in cost
    # by 300x, so percentiles over single suites would only pick a suite.
    for s, t in zip(suites, result["op_ns"]):
        s["s"] = t / 1e9
    result["op_ns"] = [sum(result["op_ns"])]
    result.update(attempted=sum(s["checks"] for s in suites),
                  failed=sum(s["not_passed"] for s in suites), suites=suites)
    return result


def run_gate(nc, spec, seed):
    """Decide the first samples of each instance by both routes."""
    out = []
    for inst in build_instances(nc, spec):
        c, ext, tower = inst["c"], inst["ext"], inst["tower"]
        fast, direct = [], []
        for j in range(spec["gate_prefix"]):
            X = nc.estimate.sample_matrix(c, ext, seed, j)
            fast.append(decide(nc, X, tower))
            try:
                direct.append(bool(nc.embed.pc_membership(X, tower).member))
            except nc.errors.NicensusError:
                direct.append(None)
        out.append({"instance": [inst["c"], inst["q"], inst["b"]],
                    "fast": fast, "direct": direct})
    result = {"gate": out}
    if "probe" in spec:
        result["probe"] = run_probe(nc, spec["probe"])
    return result


def raised_in(exc, fn_name):
    """Whether the innermost frame of exc's traceback is the function fn_name."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name == fn_name


def run_probe(nc, probe):
    """Decide the known-defect probe by the charpoly route.

    ``verdicts`` has one letter per sample: "1" member, "0" non-member, "x"
    raised.  A sample that raised in the reference but is decided now is
    re-decided by the direct route (``direct``, sample index -> verdict), so
    that a change which makes it decidable is checked, not trusted.
    """
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"]["mc-large-field"]["probe"]["verdicts"]
    c, q, b = probe["instance"]
    inst = build_instance(nc, c, q, b)
    verdicts, direct, irr_raised = [], {}, 0
    for j in range(probe["samples"]):
        X = nc.estimate.sample_matrix(c, inst["ext"], probe["seed"], j)
        try:
            verdict = "1" if nc.embed.pc_member_charpoly(X, inst["tower"]) else "0"
        except nc.errors.NicensusError as exc:
            verdict = "x"
            irr_raised += isinstance(exc, nc.errors.BudgetExceeded) and raised_in(
                exc, "irr_enumerate")
        if verdict != "x" and j < len(ref) and ref[j] == "x":
            try:
                direct[j] = bool(nc.embed.pc_membership(X, inst["tower"]).member)
            except nc.errors.NicensusError:
                direct[j] = None
        verdicts.append(verdict)
    return {"instance": [c, q, b], "seed": probe["seed"], "verdicts": "".join(verdicts),
            "direct": direct, "irr_raised": irr_raised}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--chunk", type=int, default=0)
    ap.add_argument("--mode", choices=("plain", "traced", "count", "gate", "setup"),
                    default="plain")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--spans", help="gzip JSON file for the raw spans (traced mode)")
    args = ap.parse_args()
    spec = workload(args.workload, small=args.small)
    nc = import_nicensus()
    tracer = counter = None
    if args.mode == "count":
        counter = spans.OpCounter()
    timer = Timer(on_start=counter and counter.reset)
    if args.mode == "traced":
        tracer = spans.Tracer()
        tracer.install(nc)
    elif counter:
        counter.install(nc.gf)

    if args.mode == "gate":
        result = run_gate(nc, spec, args.seed)
    elif args.mode == "setup":
        if spec["kind"] == "mc":
            build_instances(nc, spec)
        timer.start()
        result = timer.result()
    elif spec["kind"] == "mc":
        result = run_mc(nc, spec, args.seed, args.chunk, timer)
    else:
        result = run_verify(nc, spec, args.seed, timer)
    SAMPLER.stop()  # a pending SIGALRM would kill the interpreter at exit

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if counter:
        result["layer"] = counter.metrics()
    if tracer:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        layer, bad, tree = tracer.metrics(names)
        result["layer"] = layer
        result["nesting_errors"] = len(bad)
        result["spans"] = len(tracer.start)
        result["tree"] = tree
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
