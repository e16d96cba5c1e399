"""The value semantics of the package's classes: construction, repr, equality
and hash, immutability, and the memo keys they make."""

from fractions import Fraction

import pytest

from nicensus import census, cli, embed, estimate, gf, intervals, matrix, poly
from nicensus.matrix import Mat
from nicensus.poly import Poly

F2 = gf.field_create(2)
F4 = gf.field_create(2, 2)
F8A = gf.parse_field_descriptor("8/11")  # t^3 + t + 1
F8B = gf.parse_field_descriptor("8/13")  # t^3 + t^2 + 1
F2_TEXT = "FieldCtx(p=2, k=1, order=2)"
I2 = Mat(F2, 2, ((1, 0), (0, 1)))
T1 = Poly(F2, (1, 1))
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
PER_I = census.PerDimension(0, 1, 1, 1)

# class, fields by position, the defaults given by keyword, and the repr;
# every class here is immutable
CASES = [
    (Mat, (F2, 2, ((1, 0), (0, 1))), {},
     f"Mat(ctx={F2_TEXT}, n=2, rows=((1, 0), (0, 1)))"),
    (Poly, (F2, (1, 1)), {}, f"Poly(ctx={F2_TEXT}, coeffs=(1, 1))"),
    (intervals.RInterval, (THIRD, HALF), {},
     "RInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"),
    (census.NISubsetSpec, ("all", len), {"closed_form": None},
     "NISubsetSpec(name='all', member=<built-in function len>, closed_form=None)"),
    (census.PerDimension, (0, 1, 1, 1), {}, "PerDimension(i=0, n_i=1, gl_i=1, n_of_i=1)"),
    (census.FlagCensus, ("all", 1, 2, 2, (PER_I,), HALF, HALF), {},
     "FlagCensus(spec_name='all', d=1, q=2, n_total=2, "
     "per_i=(PerDimension(i=0, n_i=1, gl_i=1, n_of_i=1),), "
     "lhs=Fraction(1, 2), rhs=Fraction(1, 2))"),
    (census.CorollarySums, (1, 2, HALF, HALF, THIRD, THIRD), {},
     "CorollarySums(d=1, q=2, lhs_full=Fraction(1, 2), rhs_full=Fraction(1, 2), "
     "lhs_truncated=Fraction(1, 3), rhs_truncated=Fraction(1, 3))"),
    (census.LinearTransferBound, (HALF, THIRD), {},
     "LinearTransferBound(tight=Fraction(1, 2), relaxed=Fraction(1, 3))"),
    (census.NIAuditReport, ("all", 1, 2, 2, 1, ()), {},
     "NIAuditReport(spec_name='all', d=1, q=2, matrices_checked=2, "
     "conjugations_checked=1, violations=())"),
    (matrix.FittingSplit, (((1, 0), (0, 1)), (), I2, Mat(F2, 0, ())), {},
     f"FittingSplit(inv_basis=((1, 0), (0, 1)), nil_basis=(), "
     f"x_inv=Mat(ctx={F2_TEXT}, n=2, rows=((1, 0), (0, 1))), "
     f"x_nil=Mat(ctx={F2_TEXT}, n=0, rows=()))"),
    (embed.PCMembership, (False,), {"witness_f": None, "witness_g": None, "r": None,
                                    "inv_dim": None},
     "PCMembership(member=False, witness_f=None, witness_g=None, r=None, inv_dim=None)"),
    (embed.PropositionReport, (True, True, T1, None), {},
     f"PropositionReport(direct=True, via_conditions=True, "
     f"f=Poly(ctx={F2_TEXT}, coeffs=(1, 1)), witness_g=None)"),
    (estimate.ProportionReport, (10, 5, 0.5, 0.25, 0.75), {},
     "ProportionReport(n=10, successes=5, estimate=0.5, ci_low=0.25, ci_high=0.75)"),
    (cli.SuiteCheck, ("check", "pass", "ok"), {},
     "SuiteCheck(name='check', status='pass', detail='ok')"),
]
FIELDS = {cls: cls._fields if issubclass(cls, tuple) else cls.__slots__
          for cls, _, _, _ in CASES}


@pytest.mark.parametrize("cls, args, defaults, text", CASES,
                         ids=[cls.__name__ for cls, _, _, _ in CASES])
def test_value_semantics(cls, args, defaults, text):
    names = FIELDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)), **defaults)
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == text
    assert [getattr(by_position, name) for name in names] == [*args, *defaults.values()]
    # equality is type-sensitive: not equal to the tuple of its fields
    fields = tuple(getattr(by_position, name) for name in names)
    assert by_position != fields and fields != by_position and not by_position == fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(AttributeError):
        by_position.extra = None
    assert [getattr(by_position, name) for name in names] == list(fields)


def test_defaults():
    assert census.NISubsetSpec("all", len).closed_form is None
    assert embed.PCMembership(True) == embed.PCMembership(True, None, None, None, None)
    audit = census._Audit(None, bytearray(2), [])
    assert audit.conjugations == 0
    assert repr(audit) == ("_Audit(member=None, marks=bytearray(b'\\x00\\x00'), violations=[], "
                           "conjugations=0)")
    # the audit state is the one mutable class, and so unhashable
    audit.conjugations += 3
    assert audit == census._Audit(member=None, marks=bytearray(2), violations=[],
                                  conjugations=3)
    with pytest.raises(TypeError):
        hash(audit)


def test_fields_compare_by_field_identity():
    # F_8 under its two moduli: equal rows, different fields, unequal values
    assert F8A is not F8B and F8A.order == F8B.order
    rows = ((2, 3), (0, 0))
    for a, b in [(Mat(F8A, 2, rows), Mat(F8B, 2, rows)), (Poly(F8A, (2, 3)), Poly(F8B, (2, 3))),
                 (embed.PCMembership(True, Poly(F8A, (1,))),
                  embed.PCMembership(True, Poly(F8B, (1,))))]:
        assert a != b and not a == b
    assert Mat(F8A, 2, rows) == Mat(F8A, 2, rows) and Poly(F8B, (2, 3)) == Poly(F8B, (2, 3))


@pytest.mark.parametrize("value", [I2, T1, intervals.RInterval(THIRD, HALF)],
                         ids=["Mat", "Poly", "RInterval"])
def test_values_are_not_sequences(value):
    with pytest.raises(TypeError):
        iter(value)
    with pytest.raises(TypeError):
        len(value)
    if isinstance(value, intervals.RInterval):
        # an interval scales by a rational on either side
        assert 2 * value == value * 2 == intervals.RInterval(2 * THIRD, 2 * HALF)
    else:
        with pytest.raises(TypeError):
            2 * value


def test_interval_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty interval"):
        intervals.RInterval(1, 0)


def test_tower_compares_by_identity_and_builds_coordinates_on_first_use():
    fields = (F4, 2, F2, (1, 2))
    tower, twin = embed.TowerCtx(*fields), embed.TowerCtx(*fields)
    assert tower != twin and tower == tower and hash(tower) == object.__hash__(tower)
    assert repr(tower) == repr(twin) == (
        f"TowerCtx(ext={F4!r}, b=2, base={F2_TEXT}, basis=(1, 2))")
    with pytest.raises(AttributeError):
        tower.b = 3
    with pytest.raises(AttributeError):
        tower.extra = None
    assert "_uncoord" not in vars(tower)
    assert tower.coords(3) == (1, 1)
    assert "_uncoord" in vars(tower)


def test_an_equal_distinct_key_hits_the_memos():
    rows = ((1, 1), (0, 0))
    X, Y = Mat(F2, 2, rows), Mat(F2, 2, tuple(tuple(row) for row in rows))
    assert X is not Y and X.rows is not Y.rows and X == Y
    matrix.fitting_decompose(X)
    hits = matrix.fitting_decompose.cache_info().hits
    assert matrix.fitting_decompose(Y) == matrix.fitting_decompose.__wrapped__(X)
    assert matrix.fitting_decompose.cache_info().hits == hits + 1
    f, g = Poly(F8A, (1, 0, 1)), Poly(F8A, tuple([1, 0, 1]))
    poly.factorize(f)
    hits = poly.factorize.cache_info().hits
    assert poly.factorize(g) == poly.factorize.__wrapped__(f)
    assert poly.factorize.cache_info().hits == hits + 1
