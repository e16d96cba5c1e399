"""Field arithmetic: axioms by exhaustion and sampling, moduli, Frobenius, embeddings, parsing."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicensus import gf, intervals, matrix, poly
from nicensus.errors import (
    BudgetExceeded,
    DegreeMismatch,
    NonPrimeCharacteristic,
    NotASubfield,
    ParseError,
    ReducibleModulus,
)
from nicensus.matrix import Mat

from matrices import from_rows

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


ROW_KERNEL_FIELDS = [(2, 2), (3, 2), (2, 8), (3, 5), (2, 10), (3, 6), (2, 17), (5, 8),
                     (509, 1), (1021, 1), (131071, 1)]


@pytest.mark.parametrize("p,k", ROW_KERNEL_FIELDS)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0), max_size=10),
       st.lists(st.integers(min_value=0), max_size=10),
       st.integers(min_value=0), st.integers(min_value=0, max_value=4))
def test_row_kernel_matches_element_ops(p, k, dst, src, c, off):
    # one bound kernel per tier: full table (p = 2 and odd p), log table
    # (p = 2), prime field past the full tables (log tier and raw), and the
    # generic loop (odd p^k past the full tables)
    ctx = gf.field_create(p, k)
    dst = [x % ctx.order for x in dst] + [0] * (off + len(src))
    src = [x % ctx.order for x in src]
    c %= ctx.order
    expected = list(dst)
    for j, s in enumerate(src):
        expected[off + j] = ctx.add(expected[off + j], ctx.mul(c, s))
    ctx.axpy(dst, off, c, src)
    assert dst == expected


@pytest.mark.parametrize("p,k", ROW_KERNEL_FIELDS)
def test_frob_table_is_pth_power(p, k):
    ctx = gf.field_create(p, k)
    if ctx.order > 1 << 16:
        assert ctx.frob is None  # raw tier: no table
        return
    assert ctx.frob == [ctx.pow_elt(c, p) for c in ctx.elements()]
    assert ctx.frob == [gf.power(c, p, ctx._raw_mul, 1) for c in ctx.elements()]


# sha256 of the JSON object of every table a table-tier field builds; the
# generator, and so every table, must not move when the build changes.
TABLE_HASHES = {
    (2, 2): "1bbb99833a99dfe20ec53e4612a7c4a8c8ae8ff61b2671cb49ba44bdb04f8650",
    (3, 2): "1dcac29ae0474477d8abd28c81bfa83889cb640f9381b0378ae1519dc05e7e43",
    (2, 8): "9871810d5b2bfdff460213b400052cd28007018fac4e4afe5e1864d83f2d75db",
    (3, 5): "2b4b92e8ae273d194d234367d1cc8b39bbd6ef083b62b27a01404ac6430a2170",
    (2, 10): "039c8ac9f70dfbbdd151ff671ec74a40c1b2ea9231413ca9b756fc3fcc614bd0",
    (3, 6): "71c1e4033ce0f80ea18fd11c8c38fa7a96fe918718305a362020270871937e42",
    (1021, 1): "8c7fc13ae768fe3d93f3f79e168333fa659c2f4902207580d1bede01fcfe8955",
}


@pytest.mark.parametrize("p,k", sorted(TABLE_HASHES))
def test_tables_are_pinned(p, k):
    ctx = gf.field_create(p, k)
    tables = {name: getattr(ctx, name)
              for name in ("_exp", "_log", "frob", "mul_rows", "add_rows", "inv_table")
              if getattr(ctx, name) is not None}
    digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
    assert digest == TABLE_HASHES[(p, k)]


def _repeated_product(x, e, mul, one):
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


def test_power_equals_repeated_products():
    F3 = gf.field_create(3)
    raw = gf.field_create(2, 17)  # raw tier: pow_elt runs gf.power
    M = from_rows(F3, [(1, 2, 0), (0, 2, 1), (2, 1, 1)])
    f = poly.Poly.make(F3, (2, 0, 1, 1))
    for e in range(10):
        assert M ** e == _repeated_product(M, e, Mat.__mul__, Mat.identity(F3, 3))
        assert f ** e == _repeated_product(f, e, poly.Poly.__mul__, poly.Poly.one(F3))
        for c in (0, 1, 2, 12345, raw.order - 1):
            assert raw.pow_elt(c, e) == _repeated_product(c, e, raw.mul, 1)
        assert matrix.inverse(M) ** e * M ** e == Mat.identity(F3, 3)


def test_negative_powers_raise():
    M = from_rows(gf.field_create(3), [(1, 2), (0, 1)])
    f = poly.Poly.x(gf.field_create(3))
    for power in (lambda: gf.power(2, -3, lambda a, b: a * b, 1), lambda: M ** -1, lambda: f ** -1):
        with pytest.raises(ValueError):
            power()


def test_pow_elt_squares_with_one_product_on_raw_tier(monkeypatch):
    ctx = gf.field_create(2, 17)
    calls = []
    raw_mul = gf.FieldCtx._raw_mul
    monkeypatch.setattr(gf.FieldCtx, "_raw_mul",
                        lambda self, a, b: calls.append((a, b)) or raw_mul(self, a, b))
    c = 12345
    assert ctx.pow_elt(c, 2) == raw_mul(ctx, c, c)
    assert calls == [(c, c)]


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
    # shares no code with the large_factor test behind the modulus search, and
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
    for k, ext_k in [(2, 4), (3, 18)]:  # F_2^18 is on the raw tier
        sub = gf.field_create(2, k)
        ext = gf.field_create(2, ext_k)
        emb = gf.subfield_embedding(sub, ext)
        assert emb[0] == 0 and emb[1] == 1
        for a in sub.elements():
            for b in sub.elements():
                assert emb[sub.add(a, b)] == ext.add(emb[a], emb[b])
                assert emb[sub.mul(a, b)] == ext.mul(emb[a], emb[b])
        assert len(set(emb)) == sub.order


# sha256 of the JSON list of subfield_embedding(F_p^k, F_p^K), as built by
# a scan of every element of F_p^K for the smallest root: the root search
# may change, the chosen root and so the table may not.
EMBEDDING_HASHES = {
    (2, 2, 4): "8b2aceccf8344a4e8e51154ba32014e7de86e4166db2badd708cf48eb4ace51c",
    (2, 2, 10): "1c6b05f8fa3bd93a204711fe46b1eca64e3663502ef24be9ce9d6b6498602b09",
    (2, 5, 10): "21a164b2d183e9a74e9037c897293521227395b07edc144c32e643bd91fd2355",
    (2, 7, 14): "c2092aaec5292f45db6b6ef8cdcc37c93e43e163912cd097b10d52b559ad773d",
    (3, 2, 4): "b733115f42f38469a6aef066599af12cdcd213b213ab6c304bd9b68fbd48461b",
    (3, 2, 6): "55e37ca940ef6ad2e39c209a4c2f619a0c404b718a79643c7110d6b35b26d687",
    (2, 3, 18): "1a4cec49d66201aab77ad3431ec570abdc395c3aaddc8d69dab5054cbb8d7389",  # raw tier
}


@pytest.mark.parametrize("p,k,ext_k", sorted(EMBEDDING_HASHES))
def test_subfield_embedding_is_pinned(p, k, ext_k):
    table = gf.subfield_embedding(gf.field_create(p, k), gf.field_create(p, ext_k))
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == EMBEDDING_HASHES[(p, k, ext_k)]


def test_descriptor_roundtrip():
    for text in ["2", "3", "2^2", "2^4", "3^2", "4", "9", "16/19"]:
        ctx = gf.parse_field_descriptor(text)
        again = gf.parse_field_descriptor(gf.describe_field(ctx))
        assert again is ctx
    pinned = gf.parse_field_descriptor("2^2/7")
    assert pinned.modulus == (1, 1, 1)
    # an integer order reads as p^k, with or without a modulus
    for order, power in [("4", "2^2"), ("9", "3^2"), ("4/7", "2^2/7"), ("8/13", "2^3/13"),
                         ("7/7", "7^1/7")]:
        assert gf.parse_field_descriptor(order) is gf.parse_field_descriptor(power)
    assert gf.parse_field_descriptor("8/11").modulus == (1, 1, 0, 1)
    for text in ("2^x", "2^2/zz", "x", "4/", "2^2/-7", "4/-7", "2/-1"):
        with pytest.raises(ParseError):
            gf.parse_field_descriptor(text)
    for text in ("6", "1", "-4", "6^2", "6/7"):
        with pytest.raises(NonPrimeCharacteristic):
            gf.parse_field_descriptor(text)


def test_field_of_order():
    for p, k in [(2, 1), (2, 4), (3, 2), (5, 1), (7, 2)]:
        assert gf.field_of_order(p ** k) is gf.field_create(p, k)
    assert gf.field_of_order(8, 13) is gf.field_create(2, 3, (1, 0, 1, 1))
    for q in (1, 6, 12, 100):
        with pytest.raises(NonPrimeCharacteristic):
            gf.field_of_order(q)
    # refused by size before factoring: trial division of 10^18 + 3 would not finish
    with pytest.raises(BudgetExceeded):
        gf.field_of_order(10 ** 18 + 3)


def test_fits_matches_the_plain_comparison():
    for q in (0, 1, 2, 3, 4, 7, 256, 1021):
        for e in range(12):
            size = q ** e
            for cap in {size - 1, size, size + 1, 0, -1, -size - 1, 2 ** 24}:
                for limit in (None, size, size - 1):
                    expected = size <= (cap if limit is None else min(cap, limit))
                    assert gf.fits(q, e, cap, limit) == expected, (q, e, cap, limit)
    assert gf.admit(3, 4, "matrices", 81) == 81
    with pytest.raises(BudgetExceeded, match=r"^2\^10000000000 matrices exceed the cap 4096$"):
        gf.admit(2, 10 ** 10, "matrices", limit=4096)


def _prime_power_by_factoring(q):
    primes = gf.factor_int(q)
    return primes.popitem() if len(primes) == 1 else None


def test_prime_power_matches_factor_int():
    for q in range(-3, 5000):
        assert gf.prime_power(q) == (_prime_power_by_factoring(q) if q >= 2 else None), q
    for r, k in [(2, 33), (3, 20), (6, 12), (7, 11), (1009, 3), (65521, 2)]:
        for q in (r ** k - 1, r ** k, r ** k + 1):
            assert gf.prime_power(q) == _prime_power_by_factoring(q), (r, k, q)


def test_prime_power_refuses_past_its_bit_cap_before_any_root(monkeypatch):
    cap = gf.PRIME_POWER_MAX_BITS
    assert gf.prime_power(2 ** (cap - 1)) == (2, cap - 1)
    assert gf.prime_power(3 ** 1292) == (3, 1292)  # 2,048 bits
    def no_root(m, e):
        raise AssertionError("a root was taken past the cap")
    monkeypatch.setattr(gf, "int_nth_root", no_root)
    for q in (2 ** cap, 3 ** 1293, 10 ** 3999 + 7):
        assert gf.prime_power(q) is None


def test_int_nth_root_is_the_floor_root():
    rng = random.Random(5)
    for _ in range(500):
        m = rng.getrandbits(rng.randrange(1, 300))
        e = rng.randrange(1, 13)
        r = intervals.int_nth_root(m, e)
        assert r ** e <= m < (r + 1) ** e, (m, e)


def test_int_nth_root_on_exact_powers_small_roots_and_long_inputs():
    rng = random.Random(6)
    cases = [(r ** e + d, e) for e in (2, 3, 5, 10, 64, 1000)
             for r in (2, 3, 255, 2 ** 53 + 1, rng.getrandbits(200)) for d in (-1, 0, 1)]
    cases += [(m, e) for m in (2, 3, 2 ** 30 - 1, 2 ** 30, 3 ** 100) for e in range(1, 400)]
    cases += [(rng.randrange(10 ** 3999, 10 ** 4000), e) for e in (2, 3, 10, 1000)]
    for m, e in cases:
        r = intervals.int_nth_root(m, e)
        assert r ** e <= m < (r + 1) ** e, (m, e)
