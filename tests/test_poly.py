"""Polynomials: factorization oracle, irreducible counts, Galois orbits."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicensus import gf, poly
from nicensus.errors import NotASubfield, ZeroPolynomial
from nicensus.poly import Poly

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F1024 = gf.field_create(2, 10)


def all_polys_up_to(ctx, max_deg):
    """Every nonzero polynomial of degree <= max_deg (all leading coefficients)."""
    q = ctx.order
    for deg in range(max_deg + 1):
        for lead in range(1, q):
            for tail in itertools.product(range(q), repeat=deg):
                yield Poly.make(ctx, list(tail) + [lead])


@pytest.mark.parametrize("ctx", [F2, F3], ids=["F2", "F3"])
def test_factorize_recompose_exhaustive(ctx):
    for f in all_polys_up_to(ctx, 6):
        fac = poly.factorize(f)
        assert fac.recompose(ctx) == f
        for g, e in fac.factors:
            assert g.is_monic and e >= 1
            assert poly.is_irreducible(g)
        # factors pairwise distinct and canonically sorted
        keys = [g.canonical_key() for g, _ in fac.factors]
        assert keys == sorted(keys) and len(keys) == len(set(keys))


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6), (1021, 1)])
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=1, max_size=7))
def test_factorize_recompose_sampled_log_tier(p, k, coeffs):
    ctx = gf.field_create(p, k)
    f = Poly.make(ctx, [c % ctx.order for c in coeffs[:-1]] + [coeffs[-1] % (ctx.order - 1) + 1])
    fac = poly.factorize(f)
    assert fac.recompose(ctx) == f
    assert all(g.is_monic and poly.is_irreducible(g) for g, _ in fac.factors)


def test_factorize_is_pure():
    rng = random.Random(5)
    polys = [Poly.make(F1024, [rng.randrange(1024) for _ in range(7)] + [1]) for _ in range(10)]
    # three distinct linear factors, one squared: the split draws
    polys.append(Poly.make(F1024, (1, 1)) * Poly.make(F1024, (2, 1)) * Poly.make(F1024, (3, 1)) ** 2)
    state = random.getstate()
    first = [poly.factorize(f) for f in polys]
    assert [poly.factorize(f) for f in polys] == first
    assert random.getstate() == state


def all_monic(ctx, deg):
    for tail in itertools.product(range(ctx.order), repeat=deg):
        yield Poly(ctx, tail + (1,))


@pytest.mark.parametrize("ctx,max_deg", [(F2, 8), (F3, 6), (F4, 4), (F9, 3)],
                         ids=["F2", "F3", "F4", "F9"])
def test_large_factor_agrees_with_factorize(ctx, max_deg):
    for deg in range(max_deg + 1):
        for f in all_monic(ctx, deg):
            large = [g for g, _ in poly.factorize(f).factors if 2 * g.degree > deg]
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
    assert poly.factorize(f).factors == tuple(sorted(fac.items(), key=lambda ge: ge[0].canonical_key()))


@pytest.mark.parametrize("ctx", [F4, F9], ids=["F4", "F9"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_factor_on_built_products(ctx, data):
    f, fac = data.draw(factored_monics(ctx, 6, 8))
    _check_large_factor(f, fac)


@settings(max_examples=40, deadline=None)
@given(factored_monics(F1024, 1, 4))
def test_large_factor_on_built_products_log_tier(f_fac):
    _check_large_factor(*f_fac)


@pytest.mark.parametrize("ctx,max_deg", [(F2, 8), (F3, 5), (F4, 4), (F5, 4), (F8, 3), (F9, 3)],
                         ids=["F2", "F3", "F4", "F5", "F8", "F9"])
def test_is_irreducible_matches_sieve(ctx, max_deg):
    assert not poly.is_irreducible(Poly.zero(ctx))
    for c in range(1, ctx.order):
        assert not poly.is_irreducible(Poly.constant(ctx, c))
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
                assert poly.pow_mod(a, e, m) == acc, (a, e, m)
                acc = (acc * a) % m
    with pytest.raises(ValueError):
        poly.pow_mod(Poly.x(ctx), -1, moduli[3])


def test_factorize_examples():
    t = Poly.x(F2)
    assert poly.factorize(t * t).factors == ((t, 2),)
    f = Poly.make(F2, (1, 1, 1))
    assert poly.factorize(f).factors == ((f, 1),)
    fac = poly.factorize(Poly.make(F3, (2, 0, 1)))  # t^2 - 1
    assert [(str(g), e) for g, e in fac.factors] == [("1+1*t", 1), ("2+1*t", 1)]
    with pytest.raises(ZeroPolynomial):
        poly.factorize(Poly.zero(F2))


def test_char_p_squarefree_handling():
    # f = (t^2 + t + 1)^2 has zero derivative over F_2
    g = Poly.make(F2, (1, 1, 1))
    fac = poly.factorize(g * g)
    assert fac.factors == ((g, 2),)
    fac = poly.factorize(g ** 4 * Poly.x(F2))
    assert dict(fac.factors)[g] == 4
    assert dict(fac.factors)[Poly.x(F2)] == 1


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
    assert poly.galois_conjugate(gg, 2, 1) == gg  # prime-field coefficients
    h = Poly.make(F4, (2, 1))
    assert poly.galois_conjugate(h, 2, 1) == Poly.make(F4, (3, 1))
    assert poly.galois_conjugate(h, 2, 0) == h
    assert poly.is_irreducible(poly.galois_conjugate(h, 2, 1))
    with pytest.raises(NotASubfield):
        poly.galois_conjugate(h, 3, 1)


def test_orbit_product_examples():
    g = Poly.make(F4, (2, 1))  # t + lam
    assert poly.norm(g, F2) == Poly.make(F2, (1, 1, 1))
    assert poly.galois_orbit_length(g, 2) == 2 and poly.is_irreducible(poly.norm(g, F2))
    # trivial tower: b = 1 keeps g
    g1 = Poly.make(F2, (1, 1, 1))
    assert poly.norm(g1, F2) == g1 and poly.galois_orbit_length(g1, 2) == 1
    assert poly.is_irreducible(poly.norm(g1, F2))
    # stabilized orbit gives a proper power, which is not irreducible
    h = poly.embed_into_extension(Poly.make(F2, (1, 1)), F4)  # t + 1 over F_4
    assert poly.galois_orbit_length(h, 2) == 1
    assert not poly.is_irreducible(poly.norm(h, F2))
    assert poly.norm(h, F2) == Poly.make(F2, (1, 1)) ** 2


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
        nm = poly.norm(g, base)
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
    assert poly.poly_lcm(g, g) == g.monic()


def test_text_roundtrip():
    assert poly.format_poly(Poly.make(F4, (1, 0, 3, 1))) == "1+3*t^2+1*t^3"
    assert poly.format_poly(Poly.zero(F2)) == "0"
    assert poly.format_poly(Poly.make(F2, (1, 1, 1))) == "1+1*t+1*t^2"
    assert poly.format_poly(Poly.make(F9, (0, 5))) == "5*t"
