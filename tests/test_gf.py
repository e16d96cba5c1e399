"""Field arithmetic: axioms by exhaustion and sampling, moduli, Frobenius, embeddings, parsing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicensus import gf, poly
from nicensus.errors import (
    DegreeMismatch,
    NonPrimeCharacteristic,
    NotASubfield,
    ParseError,
    ReducibleModulus,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    ctx = gf.field_create(p, k)
    elems = list(ctx.elements())
    assert len(elems) == p ** k
    for a in elems:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
    # associativity and distributivity on every triple
    for a, b, c in itertools.product(elems, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (2, 10), (3, 6), (2, 17), (5, 8)])
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_field_axioms_sampled(p, k, a, b, c):
    # full-table tier (F_2^8, F_3^5), log-table tier (F_2^10, F_3^6) and raw
    # tier (F_2^17, F_5^8): too big to exhaust
    ctx = gf.field_create(p, k)
    a, b, c = a % ctx.order, b % ctx.order, c % ctx.order
    assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
    assert ctx.add(a, ctx.neg(a)) == 0
    assert ctx.sub(ctx.add(a, b), b) == a
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a) == ctx._raw_mul(a, b)
    assert ctx.add(a, b) == ctx._raw_add(a, b)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.pow_elt(a, ctx.order) == a
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.mul(ctx.div(b, a), a) == b


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 8), (3, 5), (2, 10), (3, 6), (2, 17), (5, 8)])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0), max_size=10),
       st.lists(st.integers(min_value=0), max_size=10),
       st.integers(min_value=0), st.integers(min_value=0, max_value=4))
def test_row_kernel_matches_element_ops(p, k, dst, src, c, off):
    # one bound kernel per tier: full table (p = 2 and odd p), log table
    # (p = 2; odd p uses the generic loop) and raw
    ctx = gf.field_create(p, k)
    dst = [x % ctx.order for x in dst] + [0] * (off + len(src))
    src = [x % ctx.order for x in src]
    c %= ctx.order
    expected = list(dst)
    for j, s in enumerate(src):
        expected[off + j] = ctx.add(expected[off + j], ctx.mul(c, s))
    ctx.axpy(dst, off, c, src)
    assert dst == expected


def test_element_encoding_roundtrip():
    ctx = gf.field_create(3, 2)
    for a in ctx.elements():
        assert ctx.from_digits(ctx.digits(a)) == a


def test_canonical_moduli():
    assert gf.field_create(2, 2).modulus == (1, 1, 1)
    # low-degree-first comparison picks t^3 + t^2 + 1 over F_2
    assert gf.field_create(2, 3).modulus == (1, 0, 1, 1)
    assert gf.field_create(2, 1).modulus == (0, 1)


def test_canonical_moduli_match_irreducible_sieve():
    # Every p^k <= 4096 with k >= 2 (k = 1 gives t by definition).  The sieve
    # shares no code with the Rabin test behind the modulus search, and
    # canonical_modulus skips the table building of field_create.
    for p in range(2, 65):
        if gf.factor_int(p) != {p: 1}:
            continue
        for k in range(2, 13):
            if p ** k <= 4096:
                smallest = poly.irr_enumerate(k, gf.field_create(p, 1))[0]
                assert gf.canonical_modulus(p, k) == smallest.coeffs, (p, k)


@pytest.mark.parametrize("p,k,modulus", [
    (2, 17, (1,) + (0,) * 13 + (1, 0, 0, 1)),
    (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
])
def test_canonical_moduli_beyond_sieve_range(p, k, modulus):
    assert gf.field_create(p, k).modulus == modulus


def test_field_create_errors():
    with pytest.raises(NonPrimeCharacteristic):
        gf.field_create(4, 1)
    with pytest.raises(ReducibleModulus):
        gf.field_create(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(DegreeMismatch):
        gf.field_create(2, 2, (1, 1, 1, 1))
    with pytest.raises(DegreeMismatch):
        gf.field_create(2, 0)


def test_explicit_modulus_accepted():
    ctx = gf.field_create(2, 2, (1, 1, 1))
    assert ctx.order == 4
    lam = 2
    assert ctx.mul(lam, lam) == ctx.add(lam, 1)


def test_frobenius_fixes_prime_field():
    for p in (2, 3, 5):
        ctx = gf.field_create(p, 1)
        for a in ctx.elements():
            assert ctx.pow_elt(a, p) == a


def test_frobenius_example_f4():
    ctx = gf.field_create(2, 2)
    lam = 2
    assert ctx.pow_elt(lam, 2) == ctx.add(lam, 1)


@pytest.mark.parametrize("p,k,q", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 4, 4), (3, 4, 9)])
def test_frobenius_is_automorphism_and_fixed_field(p, k, q):
    # q^b <= 81 cases are exhaustively checkable
    ctx = gf.field_create(p, k)
    frob = lambda a: ctx.pow_elt(a, q)
    fixed = []
    for a in ctx.elements():
        for b in ctx.elements():
            assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
            assert frob(ctx.mul(a, b)) == ctx.mul(frob(a), frob(b))
        if frob(a) == a:
            fixed.append(a)
    assert len(fixed) == q
    sub = gf.field_create(p, ctx.subfield_degree(q))
    assert sorted(fixed) == sorted(gf.subfield_embedding(sub, ctx))


def test_frobenius_b_fold_iterate_is_identity():
    ctx = gf.field_create(2, 4)
    b = 4
    for a in ctx.elements():
        y = a
        for _ in range(b):
            y = ctx.pow_elt(y, 2)
        assert y == a


def test_frobenius_not_a_subfield():
    ctx = gf.field_create(2, 3)
    assert ctx.subfield_degree(2) == 1 and ctx.subfield_degree(8) == 3
    with pytest.raises(NotASubfield):
        ctx.subfield_degree(4)  # F_4 does not sit in F_8
    with pytest.raises(NotASubfield):
        ctx.subfield_degree(3)


def test_subfield_embedding_is_homomorphism():
    sub = gf.field_create(2, 2)
    ext = gf.field_create(2, 4)
    emb = gf.subfield_embedding(sub, ext)
    assert emb[0] == 0 and emb[1] == 1
    for a in sub.elements():
        for b in sub.elements():
            assert emb[sub.add(a, b)] == ext.add(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == ext.mul(emb[a], emb[b])
    assert len(set(emb)) == sub.order


def test_descriptor_roundtrip():
    for text in ["2", "3", "2^2", "2^4", "3^2"]:
        ctx = gf.parse_field_descriptor(text)
        again = gf.parse_field_descriptor(gf.describe_field(ctx))
        assert again is ctx
    pinned = gf.parse_field_descriptor("2^2/7")
    assert pinned.modulus == (1, 1, 1)
    with pytest.raises(ParseError):
        gf.parse_field_descriptor("2^x")
    with pytest.raises(ParseError):
        gf.parse_field_descriptor("2^2/zz")
