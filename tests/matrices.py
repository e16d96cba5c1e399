"""Helpers for the tests: matrix constructors and oracles.

``from_index`` checks the order of ``all_matrices``;
``row_space_basis`` and ``fitting_blocks`` check ``fitting_decompose``;
``norm`` checks that the charpoly of a blow-up is the norm of the
charpoly; ``tower_coords`` checks ``TowerCtx.coords``;
``multiplicity_in`` checks the cyclic flags of ``primary_factors``
(listed by ``cyclic_factors``) against the multiplicities in the
charpoly and the minimal polynomial;
``proposition_report`` checks ``embed.proposition_check``.
"""

import itertools

from nicensus import embed, gf, matrix, poly
from nicensus.errors import ZeroPolynomial
from nicensus.matrix import Mat


def cyclic_factors(M):
    """The factors f of the charpoly, canonically ordered, for which M is f-primary cyclic."""
    return tuple(f for f, _, cyclic in matrix.primary_factors(M) if cyclic)


def from_rows(ctx, rows):
    """The square matrix over ctx with these rows."""
    rows = tuple(tuple(int(e) for e in r) for r in rows)
    assert all(len(r) == len(rows) for r in rows), "matrix must be square"
    return Mat(ctx, len(rows), rows)


def from_index(ctx, n, idx):
    """Matrix idx of M(n, q): the base-q digits of idx, row-major, the first least significant."""
    q = ctx.order
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            row.append(idx % q)
            idx //= q
        rows.append(tuple(row))
    return Mat(ctx, n, tuple(rows))


def fitting_blocks(M):
    """(x_inv, x_nil) as the diagonal blocks of B X B^-1.

    B holds the rows of the image of X^n, then those of its kernel, in
    the canonical bases that ``fitting_decompose`` returns.
    """
    Y = M ** M.n
    inv_basis, nil_basis = row_space_basis(Y), matrix.left_kernel_basis(Y)
    r = len(inv_basis)
    B = Mat(M.ctx, M.n, inv_basis + nil_basis)
    C = (B * M * matrix.inverse(B)).rows
    return (Mat(M.ctx, r, tuple(row[:r] for row in C[:r])),
            Mat(M.ctx, M.n - r, tuple(row[r:] for row in C[r:])))


def row_space_basis(M):
    """Reduced row-echelon basis of the row space of M, by Gaussian elimination.

    Independent of ``matrix``'s elimination, so it can check the bases
    that ``fitting_decompose`` returns.
    """
    ctx = M.ctx
    rows = [list(r) for r in M.rows]
    basis = []
    for col in range(M.n):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = ctx.inv(pivot[col])
        pivot[:] = [ctx.mul(inv, e) for e in pivot]
        for other in rows + basis:
            c = other[col]
            if c:
                other[:] = [ctx.sub(a, ctx.mul(c, e)) for a, e in zip(other, pivot)]
        basis.append(pivot)
    return tuple(map(tuple, basis))


def norm(f, base):
    """prod over tau in Gal(K/F) of f^tau, rewritten over F.

    K is f's field and F = ``base`` one of its subfields; the product of
    the b = [K:F] conjugates under coefficientwise x -> x**q has its
    coefficients in F.
    """
    conj = prod = f
    for _ in range(f.ctx.k // base.k - 1):
        conj = poly.galois_conjugate(conj, base.order)
        prod = prod * conj
    lift = {v: i for i, v in enumerate(gf.subfield_embedding(base, f.ctx))}
    return poly.Poly(base, tuple(lift[c] for c in prod.coeffs))


def tower_coords(tower):
    """Every element of K -> its coordinates in the tower's power basis.

    Sums emb(c_j) basis[j] over all (c_0, ..., c_{b-1}) in F^b, so it
    needs no linear algebra and builds a dict of |K| entries.
    """
    ext = tower.ext
    emb = gf.subfield_embedding(tower.base, ext)
    coords = {}
    for combo in itertools.product(range(tower.base.order), repeat=tower.b):
        val = 0
        for c, e in zip(combo, tower.basis):
            val = ext.add(val, ext.mul(emb[c], e))
        coords[val] = combo
    assert len(coords) == ext.order
    return coords


def multiplicity_in(f, g):
    """Multiplicity of f in g by repeated exact division; g must be nonzero."""
    if f.degree < 1:
        raise ValueError("multiplicity of a constant is undefined")
    if g.is_zero:
        raise ZeroPolynomial("every polynomial divides zero infinitely often")
    count = 0
    while g.degree >= f.degree:
        q, r = divmod(g, f)
        if not r.is_zero:
            break
        g = q
        count += 1
    return count


def proposition_report(X, f, tower):
    """The blow-up characterisation for one monic irreducible divisor f of
    the blow-up charpoly, rebuilding the blow-up and every charpoly and
    primary-cyclic factor list for this f alone."""
    Y = embed.blow_up(X, tower)
    assert f.is_monic and poly.is_irreducible(f) and f.divides(matrix.charpoly(Y))
    direct = f in cyclic_factors(Y)
    b, q = tower.b, tower.q
    via, witness = False, None
    if f.degree % b == 0:
        r = f.degree // b
        cp_ext = matrix.charpoly(X)
        pc_ext = cyclic_factors(X)
        for g, _ in poly.factorize(poly.embed_into_extension(f, tower.ext)):
            if g.degree != r or g not in pc_ext:
                continue
            ok = True
            conj = g
            for _ in range(b - 1):
                conj = poly.galois_conjugate(conj, q)
                if conj == g or conj.divides(cp_ext):
                    ok = False
                    break
            if ok:
                via, witness = True, g
                break
    return embed.PropositionReport(direct=direct, via_conditions=via, f=f, witness_g=witness)
