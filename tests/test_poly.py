"""Polynomials: factorization oracle, irreducible counts, Galois orbits."""

import hashlib
import importlib
import itertools
import pkgutil
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nicensus
from nicensus import embed, estimate, gf, matrix, poly
from nicensus.errors import BudgetExceeded, NotASubfield, ZeroPolynomial
from nicensus.poly import Poly

from matrices import multiplicity_in, norm

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F16 = gf.field_create(2, 4)
F1021 = gf.field_create(1021)
F1024 = gf.field_create(2, 10)
F2_17 = gf.field_create(2, 17)


def all_polys_up_to(ctx, max_deg):
    """Every nonzero polynomial of degree <= max_deg (all leading coefficients)."""
    q = ctx.order
    for deg in range(max_deg + 1):
        for lead in range(1, q):
            for tail in itertools.product(range(q), repeat=deg):
                yield Poly.make(ctx, list(tail) + [lead])


def recompose(f, fac):
    """f's leading coefficient times prod(g ** e) over its factorization fac."""
    out = Poly.make(f.ctx, (f.coeffs[-1],))
    for g, e in fac:
        out = out * g ** e
    return out


@pytest.mark.parametrize("ctx", [F2, F3], ids=["F2", "F3"])
def test_factorize_recompose_exhaustive(ctx):
    for f in all_polys_up_to(ctx, 6):
        fac = poly.factorize(f)
        assert recompose(f, fac) == f
        for g, e in fac:
            assert g.is_monic and e >= 1
            assert poly.is_irreducible(g)
        # factors pairwise distinct and canonically sorted
        keys = [g.canonical_key() for g, _ in fac]
        assert keys == sorted(keys) and len(keys) == len(set(keys))


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6), (1021, 1)])
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=1, max_size=7))
def test_factorize_recompose_sampled_log_tier(p, k, coeffs):
    ctx = gf.field_create(p, k)
    f = Poly.make(ctx, [c % ctx.order for c in coeffs[:-1]] + [coeffs[-1] % (ctx.order - 1) + 1])
    fac = poly.factorize(f)
    assert recompose(f, fac) == f
    assert all(g.is_monic and poly.is_irreducible(g) for g, _ in fac)


def test_factorize_is_pure():
    rng = random.Random(5)
    polys = [Poly.make(F1024, [rng.randrange(1024) for _ in range(7)] + [1]) for _ in range(10)]
    # three distinct linear factors, one squared: the split draws
    polys.append(Poly.make(F1024, (1, 1)) * Poly.make(F1024, (2, 1)) * Poly.make(F1024, (3, 1)) ** 2)
    state = random.getstate()
    first = [poly.factorize(f) for f in polys]
    assert [poly.factorize(f) for f in polys] == first
    assert random.getstate() == state


def factorization_grid():
    """Every monic polynomial of small degree over F_2, F_3, F_4 and F_9,
    seeded random ones of degree <= 12 over eight fields of every tier,
    and seeded products with repeated factors."""
    for (p, k), top in [((2, 1), 5), ((3, 1), 5), ((2, 2), 5), ((3, 2), 3)]:
        ctx = gf.field_create(p, k)
        for deg in range(1, top + 1):
            yield from all_monic(ctx, deg)
    for (p, k), n in [((2, 1), 120), ((3, 1), 120), ((2, 2), 120), ((3, 2), 120),
                      ((2, 10), 80), ((5, 1), 120), ((2, 17), 12), ((1021, 1), 80)]:
        ctx = gf.field_create(p, k)
        rng = random.Random(p ** k)
        for _ in range(n):
            coeffs = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 13))]
            yield Poly.make(ctx, coeffs + [rng.randrange(1, ctx.order)])
    for p, k in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        ctx = gf.field_create(p, k)
        rng = random.Random(1000 + p ** k)
        for _ in range(60):
            f = Poly.one(ctx)
            for _ in range(rng.randrange(1, 4)):
                g = Poly.make(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 4))] + [1])
                f = f * g ** rng.randrange(1, 4)
            yield f.scale(rng.randrange(1, ctx.order))


# sha256 of the factorizations of ``factorization_grid()``, as computed
# when t^(q^d) was still stepped by square-and-multiply modulo the
# shrinking cofactor: any change to a factorization moves it.
FACTORIZATION_GRID_SHA256 = "22d536bc346a3c6ea64dd0b37fbf12d98855c4246a48a7ee93b0e7a0da6e7c4d"


def test_factorization_grid_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for f in factorization_grid():
        fac = poly.factorize(f)
        digest.update(repr((f.ctx.order, f.coeffs, f.coeffs[-1],
                            [(g.coeffs, e) for g, e in fac])).encode())
        count += 1
    assert count == 3620
    assert digest.hexdigest() == FACTORIZATION_GRID_SHA256


def all_monic(ctx, deg):
    for tail in itertools.product(range(ctx.order), repeat=deg):
        yield Poly(ctx, tail + (1,))


@pytest.mark.parametrize("ctx,max_deg", [(F2, 6), (F3, 6), (F4, 4)], ids=["F2", "F3", "F4"])
def test_factorize_memo_matches_unscoped(ctx, max_deg):
    polys = [f for deg in range(max_deg + 1) for f in all_monic(ctx, deg)]
    unscoped = [poly.factorize.__wrapped__(f) for f in polys]
    poly.factorize.cache_clear()
    assert [poly.factorize(f) for f in polys] == unscoped  # cold: every call misses
    assert poly.factorize.cache_info().misses == len(polys)
    assert [poly.factorize(f) for f in polys] == unscoped  # repeat: every call hits
    assert poly.factorize.cache_info().hits == len(polys)


def test_factorize_memo_keeps_fields_of_one_order_apart():
    other = gf.field_create(2, 3, modulus=(1, 1, 0, 1))
    assert other.modulus != F8.modulus
    polys = [f for deg in range(4) for f in all_monic(F8, deg)]
    twins = [Poly(other, f.coeffs) for f in polys]
    unscoped = [poly.factorize.__wrapped__(f) for f in twins]
    for f in polys:
        poly.factorize(f)
    assert [poly.factorize(f) for f in twins] == unscoped
    assert [poly.factorize(f) for f in twins] == unscoped


def test_cache_inventory():
    caches, dicts = {}, set()
    for info in pkgutil.iter_modules(nicensus.__path__):
        mod = importlib.import_module(f"nicensus.{info.name}")
        for attr, obj in vars(mod).items():
            name = f"{info.name}.{attr}"
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[name] = obj.cache_info().maxsize
            elif attr.endswith("_cache") and isinstance(obj, dict):
                dicts.add(name)
    # each cache is listed with its bound or justification in ROADMAP item 8
    assert caches == {
        "gf._field": None,
        "gf.canonical_modulus": None,
        "gf.subfield_embedding": None,
        "embed.tower_for": None,
        "embed.regular_rep": embed._REP_CACHE_MAX,
        "intervals.log2_interval": None,
        "poly.factorize": poly._MEMO_MAX,
        "matrix.fitting_decompose": matrix._SPLIT_MEMO_MAX,
        "estimate._lane_constants": estimate._LANES,
    }
    assert not dicts


def test_irr_enumerate_checks_budget_on_cached_degrees():
    assert len(poly.irr_enumerate(6, F2)) == poly.irr_count(6, 2) == 9
    with pytest.raises(BudgetExceeded):
        poly.irr_enumerate(6, F2, budget=10)


@pytest.mark.parametrize("ctx,max_deg", [(F2, 8), (F3, 6), (F4, 4), (F9, 3)],
                         ids=["F2", "F3", "F4", "F9"])
def test_large_factor_agrees_with_factorize(ctx, max_deg):
    for deg in range(max_deg + 1):
        for f in all_monic(ctx, deg):
            large = [g for g, _ in poly.factorize(f) if 2 * g.degree > deg]
            assert poly.large_factor(f) == (large[0] if large else None)


def random_irreducible(ctx, r, seed):
    """The first monic irreducible among seeded random monics of degree r."""
    rng = random.Random(seed)
    while True:
        f = Poly(ctx, tuple(rng.randrange(ctx.order) for _ in range(r)) + (1,))
        if poly.is_irreducible(f):
            return f


@st.composite
def factored_monics(draw, ctx, lo, hi):
    """(f, {g: e}) with f = prod g**e built from irreducibles, lo <= deg f <= hi.

    Multiplicities reach p + 1, so p-th powers occur; the degree left over
    by the drawn parts goes to a power of t + a, a = 0 included.
    """
    left = draw(st.integers(lo, hi))
    fac = {}
    for _ in range(draw(st.integers(0, 3))):
        if not left:
            break
        r = draw(st.integers(1, left))
        e = draw(st.integers(1, min(ctx.p + 1, left // r)))
        g = random_irreducible(ctx, r, draw(st.integers(0, 2 ** 32)))
        fac[g] = fac.get(g, 0) + e
        left -= r * e
    if left:
        g = Poly(ctx, (draw(st.integers(0, ctx.order - 1)), 1))
        fac[g] = fac.get(g, 0) + left
    f = Poly.one(ctx)
    for g, e in fac.items():
        f = f * g ** e
    return f, fac


def _check_large_factor(f, fac):
    large = [g for g in fac if 2 * g.degree > f.degree]
    assert poly.large_factor(f) == (large[0] if large else None)
    assert poly.factorize(f) == tuple(sorted(fac.items(), key=lambda ge: ge[0].canonical_key()))


@pytest.mark.parametrize("ctx", [F4, F9, F16], ids=["F4", "F9", "F16"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_factor_on_built_products(ctx, data):
    # degrees 6-8 skip d <= n/4 in large_factor's product; F16 takes k = 4
    # p-th power steps per d
    f, fac = data.draw(factored_monics(ctx, 6, 8))
    _check_large_factor(f, fac)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(F1024, 4), (F1021, 6)]).flatmap(lambda c: factored_monics(c[0], 1, c[1])))
def test_large_factor_on_built_products_log_tier(f_fac):
    _check_large_factor(*f_fac)


@settings(max_examples=10, deadline=None)
@given(factored_monics(F2_17, 1, 6))
def test_large_factor_on_built_products_raw_tier(f_fac):
    # the raw tier has no frob table: the p-th power step calls pow_elt
    _check_large_factor(*f_fac)


def test_large_factor_fails_rather_than_hangs_on_a_faulty_division(monkeypatch):
    # A quotient that reads 0 for the coefficient 2 leaves u = 0 in the
    # division loop on this input over F_5, where c = gcd(0, c) never becomes
    # a unit; the loop's bound of deg f passes turns that into an error.
    exact = poly._divmod_lists

    def faulty(ctx, a, b):
        nquo, rem = exact(ctx, a, b)
        return [0 if c == 2 else c for c in nquo], rem

    def expire(signum, frame):
        raise TimeoutError("large_factor still running after 5 s")

    f = Poly(F5, (3, 3, 4, 4, 4, 1, 0, 1))
    assert poly.large_factor(f) == Poly(F5, (3, 3, 0, 2, 1))
    monkeypatch.setattr(poly, "_divmod_lists", faulty)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(AssertionError, match="did not end"):
            poly.large_factor(f)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_equal_degree_split_fails_rather_than_hangs_on_a_faulty_power(monkeypatch):
    # A power kernel that returns 1 makes every odd-q draw b = 1 - 1 = 0,
    # and gcd(g, 0) = g never splits g; the bound on draws turns that into
    # an error.
    def expire(signum, frame):
        raise TimeoutError("_split_equal_degree still running after 5 s")

    linear = [Poly.make(F3, (1, 1)), Poly.make(F3, (2, 1))]  # t + 1, t + 2
    g = linear[0] * linear[1]
    assert sorted(poly._split_equal_degree(g, 1), key=Poly.canonical_key) == linear
    monkeypatch.setattr(poly, "_powmod_lists", lambda ctx, a, e, m: [1])
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(AssertionError, match="no split in 64 draws"):
            poly._split_equal_degree(g, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 8), (3, 5),  # full table
                                 (2, 10), (3, 6), (1021, 1),      # log table
                                 (2, 17), (5, 8)])                # raw
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=3, max_size=8),
       st.lists(st.integers(min_value=0), max_size=8))
def test_pth_power_matches_pow_mod(p, k, m, x):
    ctx = gf.field_create(p, k)
    m = Poly.make(ctx, [c % ctx.order for c in m[:-1]] + [1])
    x = Poly.make(ctx, [c % ctx.order for c in x]) % m
    rows = poly._frobenius_rows(ctx, m.coeffs)
    t = Poly.x(ctx)
    assert [Poly.make(ctx, row) for row in rows] == [t ** (p * i) % m for i in range(m.degree)]
    reference = gf.power(x, p, lambda a, b: a * b % m, Poly.one(ctx))
    assert poly._pth_power(ctx, rows, list(x.coeffs)) == list(reference.coeffs)


@pytest.mark.parametrize("ctx,max_deg", [(F2, 8), (F3, 5), (F4, 4), (F5, 4), (F8, 3), (F9, 3)],
                         ids=["F2", "F3", "F4", "F5", "F8", "F9"])
def test_is_irreducible_matches_sieve(ctx, max_deg):
    assert not poly.is_irreducible(Poly.zero(ctx))
    for c in range(1, ctx.order):
        assert not poly.is_irreducible(Poly.make(ctx, (c,)))
    for deg in range(1, max_deg + 1):
        irr = set(poly.irr_enumerate(deg, ctx))
        for f in all_monic(ctx, deg):
            assert poly.is_irreducible(f) == (f in irr)


@pytest.mark.parametrize("ctx", [F2, F4, F9, F1024], ids=["F2", "F4", "F9", "F1024"])
def test_pow_mod_matches_repeated_multiplication(ctx):
    rng = random.Random(ctx.order)

    def rand_poly(deg, lead=None):
        coeffs = [rng.randrange(ctx.order) for _ in range(deg)]
        return Poly.make(ctx, coeffs + [lead or rng.randrange(1, ctx.order)])

    moduli = [Poly.one(ctx), rand_poly(0), rand_poly(1), rand_poly(3), rand_poly(5, lead=1)]
    bases = [Poly.zero(ctx), rand_poly(0), Poly.x(ctx), rand_poly(4), rand_poly(7)]
    for m in moduli:
        for a in bases:
            acc = Poly.one(ctx) % m
            for e in range(41):
                got = poly._powmod_lists(ctx, list((a % m).coeffs), e, m.coeffs)
                assert Poly(ctx, tuple(got)) == acc, (a, e, m)
                acc = (acc * a) % m
    with pytest.raises(ValueError):
        poly._powmod_lists(ctx, [0, 1], -1, moduli[3].coeffs)


def test_factorize_examples():
    t = Poly.x(F2)
    assert poly.factorize(t * t) == ((t, 2),)
    f = Poly.make(F2, (1, 1, 1))
    assert poly.factorize(f) == ((f, 1),)
    fac = poly.factorize(Poly.make(F3, (2, 0, 1)))  # t^2 - 1
    assert [(str(g), e) for g, e in fac] == [("1+1*t", 1), ("2+1*t", 1)]
    with pytest.raises(ZeroPolynomial):
        poly.factorize(Poly.zero(F2))


def test_multiplicity_in():
    t = Poly.x(F3)
    g = Poly.make(F3, (1, 1))
    assert multiplicity_in(g, g ** 3 * t) == 3
    assert multiplicity_in(t, g) == 0
    with pytest.raises(ZeroPolynomial):  # zero is divisible by every power of g
        multiplicity_in(g, Poly.zero(F3))
    with pytest.raises(ValueError):
        multiplicity_in(Poly.one(F3), g)


def test_char_p_squarefree_handling():
    # f = (t^2 + t + 1)^2 has zero derivative over F_2
    g = Poly.make(F2, (1, 1, 1))
    fac = poly.factorize(g * g)
    assert fac == ((g, 2),)
    fac = poly.factorize(g ** 4 * Poly.x(F2))
    assert dict(fac)[g] == 4
    assert dict(fac)[Poly.x(F2)] == 1


def test_irr_count_anchors():
    assert poly.irr_count(1, 7) == 7
    assert poly.irr_count(2, 3) == 3
    assert poly.irr_count(6, 2) == 9
    assert poly.irr_count(4, 2) == 3


@pytest.mark.parametrize("ctx,q,maxm", [(F2, 2, 8), (F3, 3, 8), (F4, 4, 8)],
                         ids=["q2", "q3", "q4"])
def test_irr_enumerate_matches_count(ctx, q, maxm):
    for m in range(1, maxm + 1):
        irr = poly.irr_enumerate(m, ctx)
        assert len(irr) == poly.irr_count(m, q)
        keys = [f.canonical_key() for f in irr]
        assert keys == sorted(keys)


def test_irr_enumerate_examples():
    lin = poly.irr_enumerate(1, F3)
    assert len(lin) == 3 and all(f.degree == 1 for f in lin)
    assert [str(f) for f in poly.irr_enumerate(2, F2)] == ["1+1*t+1*t^2"]


def test_count_sandwich_for_composite_degrees():
    # (q^m - 2 q^(m/2)) / m <= count <= (q^m - 1) / m for m >= 2
    for q in (2, 3, 4, 5):
        for m in range(2, 17):
            cnt = poly.irr_count(m, q)
            assert m * cnt <= q ** m - 1
            assert (m * cnt) ** 2 >= 0
            # lower bound, squared to stay in integers when m is odd
            lhs = q ** m - m * cnt  # must be < 2 q^{m/2}  <=>  lhs^2 < 4 q^m
            assert lhs < 0 or lhs * lhs < 4 * q ** m


def test_galois_conjugate_examples():
    g = Poly.make(F2, (1, 1, 1))
    gg = poly.embed_into_extension(g, F4)
    assert poly.galois_conjugate(gg, 2) == gg  # prime-field coefficients
    h = Poly.make(F4, (2, 1))
    assert poly.galois_conjugate(h, 2) == Poly.make(F4, (3, 1))
    assert poly.is_irreducible(poly.galois_conjugate(h, 2))
    with pytest.raises(NotASubfield):
        poly.galois_conjugate(h, 3)


@pytest.mark.parametrize("p,k,m", [(2, 4, 2), (3, 4, 2), (2, 10, 5), (2, 12, 4), (2, 18, 6)])
def test_galois_conjugate_and_orbit_match_pow_elt(p, k, m):
    # frob read m times on the table tiers, pow_elt on the raw tier (2^18);
    # half the g have coefficients in F_q, so short orbits occur
    ctx, q = gf.field_create(p, k), p ** m
    sub = gf.subfield_embedding(gf.field_create(p, m), ctx)
    rng = random.Random(k)
    for j in range(40):
        pool = sub if j % 2 else range(ctx.order)
        g = Poly.make(ctx, [rng.choice(pool) for _ in range(3)] + [1])
        conj, length = g, 0
        while True:
            conj, length = Poly(ctx, tuple(ctx.pow_elt(c, q) for c in conj.coeffs)), length + 1
            if length == 1:
                assert poly.galois_conjugate(g, q) == conj
            if conj == g:
                break
        assert poly.galois_orbit_length(g, q) == length


def test_orbit_product_examples():
    g = Poly.make(F4, (2, 1))  # t + lam
    assert norm(g, F2) == Poly.make(F2, (1, 1, 1))
    assert poly.galois_orbit_length(g, 2) == 2 and poly.is_irreducible(norm(g, F2))
    # trivial tower: b = 1 keeps g
    g1 = Poly.make(F2, (1, 1, 1))
    assert norm(g1, F2) == g1 and poly.galois_orbit_length(g1, 2) == 1
    assert poly.is_irreducible(norm(g1, F2))
    # stabilized orbit gives a proper power, which is not irreducible
    h = poly.embed_into_extension(Poly.make(F2, (1, 1)), F4)  # t + 1 over F_4
    assert poly.galois_orbit_length(h, 2) == 1
    assert not poly.is_irreducible(norm(h, F2))
    assert norm(h, F2) == Poly.make(F2, (1, 1)) ** 2


@pytest.mark.parametrize("p,b,r", [
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),
    (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (2, 4, 1), (5, 2, 1),
])
def test_orbit_products_land_in_irr_br(p, b, r):
    q = p
    ext = gf.field_create(p, b)
    base = gf.field_create(p, 1)
    full = 0
    for g in poly.irr_enumerate(r, ext):
        nm = norm(g, base)
        full_orbit = poly.galois_orbit_length(g, q) == b
        assert nm.degree == b * r
        assert poly.is_irreducible(nm) == full_orbit
        full += full_orbit
    assert full == poly.count_regular_orbit_irr(r, b, q)


def test_regular_orbit_reports():
    rep = poly.regular_orbit_report(1, 2, 2)
    assert rep["count"] == 2
    assert rep["supports"] == "b*|Irr_br(q)|"
    rep = poly.regular_orbit_report(1, 3, 2)
    assert rep["count"] == 6 and rep["supports"] == "b*|Irr_br(q)|"
    # b == r makes the two formulas coincide
    rep = poly.regular_orbit_report(2, 2, 2)
    assert rep["supports"] == "both" and rep["count"] == 6


def test_division_and_gcd():
    f = Poly.make(F3, (1, 0, 2, 1))
    g = Poly.make(F3, (2, 1))
    q, r = divmod(f, g)
    assert q * g + r == f
    assert poly.poly_gcd(f * g, g) == g.monic()


def test_text_roundtrip():
    assert poly.format_poly(Poly.make(F4, (1, 0, 3, 1))) == "1+3*t^2+1*t^3"
    assert poly.format_poly(Poly.zero(F2)) == "0"
    assert poly.format_poly(Poly.make(F2, (1, 1, 1))) == "1+1*t+1*t^2"
    assert poly.format_poly(Poly.make(F9, (0, 5))) == "5*t"
