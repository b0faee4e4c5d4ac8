"""Quadratic-form invariants over local fields.

Gram matrices live over a tower (in practice the trivial tower, i.e. the
base field).  Invariants come from symmetric Gaussian diagonalization with
pivots of minimal valuation (deterministic tie-break by basis order):
determinant class, the normalized discriminant (-1)^(d/2) * det in even
dimension, and the Hasse invariant as a product of Hilbert symbols; over R
the signature replaces (det, Hasse).  Dimension 0 is allowed and carries
discriminant 1 by convention.
"""

from fractions import Fraction

from .errors import Degenerate, NonSymmetric
from .localfield import hilbert_symbol, square_class, trivial_tower, valuation


class QuadraticSpace:
    """A nondegenerate symmetric bilinear form given by its Gram matrix,
    with the diagonal of a congruent diagonal form."""

    def __init__(self, field, gram):
        rows = []
        for row in gram:
            rows.append(tuple(field.element(v) for v in row))
        self.field = field
        self.gram = tuple(rows)
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise NonSymmetric(f"Gram[{i}][{j}] != Gram[{j}][{i}]")
        self.dim = d
        self.diag, ok = _diagonalize(self)
        if not ok:
            raise Degenerate("Gram matrix is singular")

    def __repr__(self):
        return f"QuadraticSpace(dim={self.dim} over {self.field!r})"


class FormInvariants:
    """Classifying data: (dim, det class, Hasse) p-adically, signature over R.

    ``disc`` is the normalized discriminant for even dimension; None for
    odd dimension.
    """

    def __init__(self, dim, det=None, disc=None, hasse=None, signature=None):
        self.dim = dim
        self.det = det              # canonical square-class representative
        self.disc = disc
        self.hasse = hasse
        self.signature = signature

    def same_class(self, other):
        if self.dim != other.dim:
            return False
        if self.signature is not None:
            return self.signature == other.signature
        return self.det == other.det and self.hasse == other.hasse


def _diagonalize(space):
    """Diagonal of a congruent diagonal form, and a nondegeneracy flag."""
    d = space.dim
    field = space.field
    m = [[space.gram[i][j] for j in range(d)] for i in range(d)]
    diag = []
    for k in range(d):
        piv = _pick_pivot(m, k, field)
        if piv is None:
            return diag, False
        i, j = piv
        if i != j:
            # fold basis vector j into i so the diagonal entry is nonzero
            for r in range(d):
                m[r][i] = m[r][i] + m[r][j]
            for c in range(d):
                m[i][c] = m[i][c] + m[j][c]
        if i != k:
            m[i], m[k] = m[k], m[i]
            for r in range(d):
                m[r][i], m[r][k] = m[r][k], m[r][i]
        pivot = m[k][k]
        for r in range(k + 1, d):
            if m[r][k]:
                f = m[r][k] / pivot
                for c in range(d):
                    m[r][c] = m[r][c] - f * m[k][c]
                for c in range(d):
                    m[c][r] = m[c][r] - f * m[c][k]
        diag.append(pivot)
    return diag, all(bool(v) for v in diag)


def _pick_pivot(m, k, field):
    d = len(m)
    if field.base.is_real:
        for i in range(k, d):
            if m[i][i]:
                return (i, i)
    else:
        best = None
        for i in range(k, d):
            if m[i][i]:
                v = valuation(m[i][i])
                if best is None or v < best[0]:
                    best = (v, i)
        if best is not None:
            return (best[1], best[1])
    for i in range(k, d):
        for j in range(k, d):
            if m[i][j]:
                return (i, j)
    return None


def invariants(space):
    """dim, det class, normalized discriminant, Hasse invariant / signature."""
    d = space.dim
    field = space.field
    if d == 0:
        one = field.element(1)
        return FormInvariants(0, det=one, disc=one, hasse=1,
                              signature=(0, 0) if field.base.is_real else None)
    diag = space.diag
    if field.base.is_real:
        pos = sum(1 for v in diag if v.as_fraction() > 0)
        det = field.element(1 if (d - pos) % 2 == 0 else -1)
        disc = None
        if d % 2 == 0:
            disc = square_class(field.element((-1) ** (d // 2)) * det)
        return FormInvariants(d, det=det, disc=disc, hasse=None,
                              signature=(pos, d - pos))
    det = diag[0]
    for v in diag[1:]:
        det = det * v
    det_rep = square_class(det)
    disc = None
    if d % 2 == 0:
        disc = square_class(field.element((-1) ** (d // 2)) * det)
    hasse = 1
    for i in range(d):
        for j in range(i + 1, d):
            hasse *= hilbert_symbol(diag[i], diag[j])
    return FormInvariants(d, det=det_rep, disc=disc, hasse=hasse)


def isomorphic(a, b):
    """Isometry of quadratic spaces over the same ground field."""
    if a.field != b.field:
        raise ValueError("spaces over different fields")
    return invariants(a).same_class(invariants(b))


# ---------------------------------------------------------------------------
# trace forms
# ---------------------------------------------------------------------------

def _assemble(ground, index_blocks, x_d=None):
    blocks = []
    if x_d is not None:
        blocks.append([[ground.element(x_d)]])
    blocks.extend(index_blocks)
    dim = sum(len(b) for b in blocks)
    gram = [[ground.element(0)] * dim for _ in range(dim)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                gram[off + i][off + j] = ground.element(b[i][j])
        off += k
    return QuadraticSpace(ground, gram)


def gram_block(algebra, coeff):
    """Gram of (v, w) -> trace(tau(v) * w * coeff) on the monomial basis of
    the etale algebra, over the base field.  Raises NonSymmetric unless the
    coefficient is tau-fixed.  It is S * M on the integer structure
    constants: M is the integer matrix of coeff, and S[k][l] = Tr(tau(b_k)
    * b_l), the product's numerators times the monomial traces, is negated
    for the b_k with a factor rt."""
    if coeff.tau() != coeff:
        raise NonSymmetric("form coefficient is not tau-fixed")
    n, table = algebra.n, algebra._table
    # D times the trace of monomial j: its coefficient in b_j * b_i, over i
    tr = [sum(s for i, prod in enumerate(row) for k, s in prod if k == i) for row in table]
    S = [[(-1) ** (k >= algebra.base_pm.n) * sum(s * tr[j] for j, s in prod) for prod in row]
         for k, row in enumerate(table)]
    M, den = algebra._num_matrix(coeff), coeff.den * algebra._D ** 3
    return [[Fraction(sum(s * M[l][m] for l, s in enumerate(srow) if s), den)
             for m in range(n)] for srow in S]


def trace_form_gram(param, *, side=None):
    """The trace form of a parameter pack, over the base field.

    Per index the block is (v, w) -> trace(tau(v) * w * c_i) on the
    monomial basis of F_i, taking the entry's form coefficient c_i when
    present and its value otherwise (theta-style presentations whose
    coefficients are the x_i).  A pack with a distinguished-line
    coefficient contributes a leading 1x1 block [x_D].  ``side`` restricts
    to one half of the index set (the distinguished line is kept only when
    side is None).
    """
    entries = [en for en in param.entries if side is None or en.side == side]
    x_d = param.x_D if side is None else None
    if entries:
        base = entries[0].algebra.base_pm.base
    elif x_d is not None:
        base = x_d.tower.base
    else:
        raise ValueError("cannot infer the ground field of an empty pack")
    ground = trivial_tower(base)
    blocks = []
    for en in entries:
        coeff = en.c if en.c is not None else en.value
        try:
            blocks.append(gram_block(en.algebra, coeff))
        except NonSymmetric:
            raise NonSymmetric(
                f"coefficient at index {en.name!r} is not tau-fixed"
            ) from None
    return _assemble(ground, blocks, x_d)


def symmetrize_twisted(param):
    """The symmetrization q(v, v') = x(v, v') + x(v', v) of a twisted form.

    Equals the trace form with coefficients x_i + tau(x_i).  Raises
    Degenerate when the symmetrization is singular, which signals
    non-suitably-regular input.
    """
    entries = param.entries
    if not entries:
        raise ValueError("cannot symmetrize an empty pack")
    if param.x_D is not None:
        raise ValueError("symmetrization applies to the even case only")
    ground = trivial_tower(entries[0].algebra.base_pm.base)
    blocks = []
    for en in entries:
        coeff = en.value + en.value.tau()
        if not coeff:
            raise Degenerate(f"symmetrized coefficient at index {en.name!r} vanishes")
        blocks.append(gram_block(en.algebra, coeff))
    try:
        return _assemble(ground, blocks)
    except Degenerate:
        raise Degenerate("symmetrization is singular") from None
