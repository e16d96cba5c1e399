"""Workload definitions shared by the parent (run.py) and the child (child.py).

Pure data: importing this module imports nothing from nicensus.

Each measured child process runs one *chunk* of a workload.  On the mc
workloads chunk i holds sample indices [i*chunk, (i+1)*chunk) of every
instance at the run's seed, so successive children of one run cover
successive, disjoint parts of the seed's sample stream.  On verify-exact
every chunk is the same: the six suites, in a fixed order.
"""

# (c, q, b): sample M(c, F_{q^b}) and decide large-degree primary cyclicity.
MC_SMALL = {
    "kind": "mc",
    # Full-table tier of gf (F_4, F_9).  8x8 charpoly and the squarefree /
    # distinct-degree factorization dominate; table-hoisted kernels and the
    # member cache act here.
    "instances": [(8, 2, 2), (6, 3, 2)],
    "chunk": 3000,
    # Samples per instance re-decided by the direct blow-up route.
    "gate_prefix": 20,
}

MC_LARGE = {
    "kind": "mc",
    # Log-table tier of gf (F_{2^10}).  Set-up runs the modulus search
    # (about a third of it) and builds the tower tables; the tail comes
    # from trial division against all 2^10 linear polynomials in the
    # equal-degree split, and the member cache almost never hits.  Kernel table-hoisting does not
    # reach this path, so its prediction here is "no change".
    # 3x3, not 4x4: a 4x4 charpoly with two distinct quadratic factors
    # makes the split enumerate degree 2, which raises BudgetExceeded (the
    # known defect), and a timed operation must not fail; the probe below
    # measures the defect instead.  F_{2^10}, not F_{2^14}: over F_{2^14}
    # a sample costs 12-14 ms on average with a standard deviation of
    # 30 ms (the trial-division tail), so the 1000-1500 samples a 30 s run
    # fits vary by 6-9% from seed to seed.  Not F_{2^12}: there the direct
    # route of the gate enumerates all 2^24 quartics over F_{2^6}.
    "instances": [(3, 2 ** 5, 2)],
    "chunk": 3000,
    "gate_prefix": 10,
    # Known-defect probe, untimed, in the gate child: the first samples of
    # M(4, F_{2^14}) at the reference seed, decided by the charpoly route.
    "probe": {"instance": (4, 2 ** 7, 2), "seed": 42, "samples": 100},
}

VERIFY_EXACT = {
    "kind": "verify",
    # Many tiny matrices (d <= 3, 4x4 blow-ups), the direct blow-up oracle
    # and the rational closed forms of quokka/intervals: the same matrix
    # and poly layers used in a different way from the mc workloads.
    "suites": ["theorem1", "lemma31", "quokka-closed-forms", "prop-polys",
               "bounds", "corollary-sums"],
}

WORKLOADS = {
    "mc-small-field": MC_SMALL,
    "mc-large-field": MC_LARGE,
    "verify-exact": VERIFY_EXACT,
}

# Reduced sizes for ``run.py --self-test``.
SMALL = {
    "mc-small-field": {"chunk": 40, "gate_prefix": 3},
    "mc-large-field": {"chunk": 200, "gate_prefix": 3,
                       "probe": {"instance": (4, 2 ** 7, 2), "seed": 42, "samples": 30}},
    "verify-exact": {"suites": ["corollary-sums", "quokka-closed-forms"]},
}


def workload(name, small=False):
    """The workload spec ``name``, with the self-test sizes when ``small``."""
    spec = dict(WORKLOADS[name])
    if small:
        spec.update(SMALL[name])
    return spec
