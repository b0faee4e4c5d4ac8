"""Dense polynomials and the characteristic polynomial of a matrix.

Polynomials are plain lists of coefficients, constant term first, trailing
zeros stripped.  Coefficients may be Fractions or any of the package's
element types; ``pmul``, ``pderiv`` and ``charpoly`` only use ``+ - *``, so
one implementation serves Q, towers, and etale algebras, and ``charpoly``
also runs on the integer matrices of the tower kernel.
``peval`` evaluates at an element of a tower or etale algebra on that ring's
integer matrix of the element, ``peval_many`` several polynomials on one set
of its powers (the rows of the factor engine's pack), and ``peval_scalar``
at 0, 1 and -1 by coefficient sums alone.  Polynomial division lives here
alone: ``rem_mod``, the remainder over F_l that ``gcd_mod`` and the residue
fields of ``localfield`` use.
"""

import operator
from fractions import Fraction
from math import gcd, lcm


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def degree(p):
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def pmul(p, q):
    if not p or not q:
        return []
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            t = a * b
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return trim(out)


def pderiv(p):
    return trim([p[k] * k for k in range(1, len(p))])


def peval(p, x, zero):
    """p(x) for an element x of a tower or etale algebra; ``zero`` when p is
    empty.  The coefficients are ints, Fractions or elements that x
    coerces."""
    return peval_many([p], x, zero)[0]


def peval_many(polys, x, zero):
    """[p(x) for p in polys], on one set of powers of x (see ``peval``).

    The ring's integer matrix N of y -> x*y is over s = x.den * D, so
    b * x^k = N^k b / s^k for b a monomial of the ring's basis.  With the
    coefficients of a p of degree m over one denominator L, c_k = C_k / L,
    C_k = sum_r C_k[r] * b_r, p(x) = sum_(k,r) C_k[r] * s^(m-k) * N^k b_r
    over s^m * L.  A scalar coefficient has b_0 = 1 alone, an element of E
    in a tensor algebra 1 and the root: the vectors N^k b_r, made once for
    each monomial met, are the powers all the polys share.
    """
    ring = x.ring
    mat = ring._num_matrix(x)
    s = x.den * ring._D
    powers = {}
    out = []
    for p in polys:
        coeffs = []
        for c in p:
            if isinstance(c, (int, Fraction)):
                coeffs.append(((c.numerator,), c.denominator))
            else:
                o = x._co(c)
                if o is None:
                    raise TypeError(f"cannot evaluate a coefficient {c!r} at {x!r}")
                coeffs.append((o.num, o.den))
        L = lcm(1, *(d for _, d in coeffs))
        acc, sp = [0] * ring.n, 1
        for k in reversed(range(len(coeffs))):
            num, d = coeffs[k]
            for r, c in enumerate(num):
                if c:
                    chain = powers.get(r) or powers.setdefault(
                        r, [[int(i == r) for i in range(ring.n)]])
                    while len(chain) <= k:
                        chain.append([sum(map(operator.mul, row, chain[-1])) for row in mat])
                    acc = list(map(operator.add, acc, map((c * sp * (L // d)).__mul__, chain[k])))
            sp *= s
        if not any(acc):
            out.append(zero)
            continue
        den = sp // s * L
        g = gcd(den, *acc)
        out.append(type(x)(ring, tuple(c // g for c in acc), den // g))
    return out


def peval_scalar(p, t, zero):
    """p(t) at t = 0, 1 or -1, with no products: p[0], the sum of the
    coefficients, or the sum of the even-degree ones minus that of the
    odd-degree ones.  The sums start from ``zero``, which fixes the ring of
    the value."""
    if t == 0:
        return zero + p[0] if p else zero
    if t == 1:
        return sum(p, zero)
    if t == -1:
        return sum(p[::2], zero) - sum(p[1::2], zero)
    raise ValueError(f"no coefficient-sum evaluation at {t!r}")


def rem_mod(a, b, ell):
    """The remainder of a by b over F_ell, trimmed, for int coefficient
    lists; b must be nonzero mod the prime ell."""
    b = trim([c % ell for c in b])
    rem = trim([c % ell for c in a])
    inv = pow(b[-1], -1, ell)
    while len(rem) >= len(b):
        c = rem.pop() * inv % ell
        k = len(rem) - len(b) + 1
        for j in range(len(b) - 1):
            rem[k + j] = (rem[k + j] - c * b[j]) % ell
        while rem and not rem[-1]:
            rem.pop()
    return rem


def gcd_mod(a, b, ell):
    """A gcd of a and b over F_ell, trimmed and not made monic: Euclid with
    ``rem_mod``.  It is empty when both are zero mod ell."""
    a, b = trim([c % ell for c in a]), trim([c % ell for c in b])
    while b:
        a, b = b, rem_mod(a, b, ell)
    return a


# --- matrices: lists of row lists ---

def charpoly(mat, one):
    """det(T*I - mat) as a monic coefficient list, constant term first.

    Berkowitz's algorithm (Berkowitz 1984): the polynomial of each leading
    principal block is a lower-triangular Toeplitz matrix times the
    polynomial of the block before it.  The Toeplitz column is
    (1, -a, -R*C, -R*A*C, ..., -R*A^(r-1)*C), where A is the previous block,
    R and C the new row and column beside it, and a the new diagonal entry.
    Only ``+ - *`` are used, so the entries may lie in any commutative ring:
    integers, Fractions or elements of E.
    """
    poly = [one]            # leading coefficient first while building
    for r, row in enumerate(mat):
        # s = (a, R*C, R*A*C, ...); the Toeplitz column is (1, -s)
        s = [row[r]]
        col = [mat[i][r] for i in range(r)]
        for k in range(r):
            if k:
                col = [_dot(mat[i], col) for i in range(r)]
            s.append(_dot(row, col))
        # products by the leading one are skipped
        nxt = [one]
        for k in range(1, r + 2):
            acc = poly[k] - s[k - 1] if k <= r else -s[r]
            for j in range(1, k):
                acc = acc - s[k - 1 - j] * poly[j]
            nxt.append(acc)
        poly = nxt
    poly.reverse()
    return poly


def _dot(u, v):
    """The sum of u[i]*v[i] over the indices of a nonempty v, not started
    from a zero (u may be longer)."""
    acc = u[0] * v[0]
    for i in range(1, len(v)):
        acc = acc + u[i] * v[i]
    return acc
