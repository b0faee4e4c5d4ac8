"""Dense polynomials and the characteristic polynomial of a matrix.

Polynomials are plain lists of coefficients, constant term first, trailing
zeros stripped.  Coefficients may be Fractions or any of the package's
element types; ``pmul``, ``pderiv`` and ``charpoly`` only use ``+ - *``, so
one implementation serves Q, towers, and etale algebras, and ``charpoly``
also runs on the integer matrices of the tower kernel.
``peval`` evaluates at an element of a tower or etale algebra on that ring's
integer matrix of the element, and ``peval_scalar`` at 0, 1 and -1 by
coefficient sums alone.  ``is_squarefree`` runs one path over Z[s],
s^2 = D, on integer pairs: coefficients in a quadratic field E give pairs
(x, y), rational ones the pairs (x, 0) with D = 1.  A certificate modulo a
prime near 2^61 comes first, so no routine here needs a field of
fractions.  Polynomial division lives here alone: ``_pair_prem``, the
pseudo-remainder over Z[s], and ``rem_mod``, the remainder over F_l that
``gcd_mod``, the certificate and the residue fields of ``localfield`` use.
"""

import operator
from fractions import Fraction
from math import gcd, lcm

# Primes l = 3 (mod 4) from 2^61 - 1 down, in a fixed order.  The squarefree
# certificate works mod the first in which D is a nonzero square, where
# D^((l+1)/4) is a root of it: over Q, D = 1 and that is the first.
_PRIMES = tuple(2 ** 61 - k for k in (1, 45, 229, 465, 829, 985, 1153, 1281))


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
    coerces.

    One Horner pass on integer vectors: the ring's integer matrix N of
    y -> x*y is over s = x.den * D, and with the coefficients over one
    denominator L, c_j = C_j / L, the vectors W_m = C_m and
    W_j = N*W_(j+1) + s^(m-j) * C_j give p(x) = W_0 / (s^m * L).
    """
    if not p:
        return zero
    coeffs = []
    for c in p:
        if isinstance(c, (int, Fraction)):
            coeffs.append(((c.numerator,), c.denominator))
        else:
            o = x._co(c)
            if o is None:
                raise TypeError(f"cannot evaluate a coefficient {c!r} at {x!r}")
            coeffs.append((o.num, o.den))
    ring = x.ring
    L = lcm(*(d for _, d in coeffs))
    mat = ring._num_matrix(x)
    s = x.den * ring._D
    num, d = coeffs[-1]
    acc = [c * (L // d) for c in num] + [0] * (ring.n - len(num))
    scale = 1
    for num, d in reversed(coeffs[:-1]):
        scale *= s
        acc = [sum(map(operator.mul, row, acc)) for row in mat]
        k = scale * (L // d)
        for i, c in enumerate(num):
            if c:
                acc[i] += k * c
    den = scale * L
    g = gcd(den, *acc)
    return type(x)(ring, tuple(c // g for c in acc), den // g)


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


def is_squarefree(p):
    """No repeated factor: gcd(p, p') has degree <= 0.

    One path over Z[s], s^2 = D, on integer pairs (x, y) = x + y*s.  For
    coefficients in a quadratic field E = F(rt), rt^2 = delta = n/d, s is
    d*rt and D = n*d; a coefficient (x + y*rt)/c is scaled by the lcm L of
    the c and by d to the pair (x*d*L/c, y*L/c).  A rational coefficient
    x/c is the pair (x*L/c, 0) with D = 1.  The pairs are then divided by
    the gcd of all their entries.

    The certificate: for the first listed prime l in which D is a nonzero
    square (over Q, l = 2^61 - 1), s -> r = D^((l+1)/4) is a ring map
    Z[s] -> F_l.  When l does not divide the top pair's image and the
    image a is coprime to a' over F_l, the resultant is nonzero, so p is
    squarefree.  Otherwise the primitive pseudo-remainder sequence of
    (p, p') over Z[s] decides, and gives every False: it differs from the
    Euclidean one over E (or Q) by nonzero factors at each step, so its
    last nonzero term has the degree of the gcd.  delta is a non-square,
    so x + y*s is zero only when x = y = 0.
    """
    if all(isinstance(c, (int, Fraction)) for c in p):
        D, terms = 1, [(c.numerator, 0, c.denominator) for c in p]
    else:
        delta = p[0].algebra.delta
        d, D = delta.den, delta.num[0] * delta.den
        terms = [(c.num[0] * d, c.num[1], c.den) for c in p]
    den = lcm(*(c for _, _, c in terms))
    a = _primitive_pairs([(x * (den // c), y * (den // c)) for x, y, c in terms])
    ell = next((ell for ell in _PRIMES if pow(D, (ell - 1) // 2, ell) == 1), None)
    if ell is not None:
        r = pow(D, (ell + 1) // 4, ell)
        if _coprime_to_derivative_mod([(x + y * r) % ell for x, y in a], ell):
            return True
    b = _primitive_pairs([(k * x, k * y) for k, (x, y) in enumerate(a)][1:])
    while b:
        a, b = b, _primitive_pairs(_pair_prem(a, b, D))
    return degree(a) <= 0


def _coprime_to_derivative_mod(a, ell):
    """True when the coefficients a, reduced mod the prime ell, have a
    nonzero top one and a is coprime to a' over F_ell.  With a the image
    of an integer polynomial of the same degree below ell, that certifies
    the integer one squarefree; False decides nothing."""
    return bool(a) and a[-1] % ell != 0 and len(gcd_mod(a, pderiv(a), ell)) == 1


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


def _primitive_pairs(coeffs):
    """Integer pairs divided by the gcd of all their entries."""
    content = gcd(*(v for pair in coeffs for v in pair))
    return [(x // content, y // content) for x, y in coeffs] if content > 1 else coeffs


def _pair_prem(a, b, D):
    """The remainder of k*a by b for some nonzero k in Z[s], s^2 = D, on
    integer pairs (x, y) = x + y*s (b nonzero)."""
    rem = list(a)
    l0, l1 = b[-1]
    while len(rem) >= len(b):
        c0, c1 = rem[-1]
        g = gcd(l0, l1, c0, c1)
        s0, s1, c0, c1 = l0 // g, l1 // g, c0 // g, c1 // g
        k = len(rem) - len(b)
        # rem * (s0 + s1*s) - (c0 + c1*s) * T^k * b; the top term cancels
        rem = [(x * s0 + D * y * s1, x * s1 + y * s0) for x, y in rem[:-1]]
        for j, (x, y) in enumerate(b[:-1]):
            u, v = rem[k + j]
            rem[k + j] = (u - c0 * x - D * c1 * y, v - c0 * y - c1 * x)
        while rem and rem[-1] == (0, 0):
            rem.pop()
    return rem


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
