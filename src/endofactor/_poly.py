"""Dense polynomials and the characteristic polynomial of a matrix.

Polynomials are plain lists of coefficients, constant term first, trailing
zeros stripped.  Coefficients may be Fractions or any of the package's
element types; everything here only uses ``+ - *`` (and ``/`` where a field
is documented), so one implementation serves Q, towers, and etale algebras.
``charpoly`` needs only a commutative ring, so it also runs on the integer
matrices of the tower kernel; ``is_squarefree`` works over Z when the
coefficients are Fractions, and ``pgcd`` over E is the one path left that
needs a field.
"""

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
    """Horner evaluation; ``zero`` fixes the target ring when p is empty."""
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pmonic(p):
    """Divide by the leading coefficient (field coefficients)."""
    if not p:
        raise ValueError("zero polynomial")
    lead = p[-1]
    return [c / lead for c in p]


def pdivmod(p, q):
    """Euclidean division over field coefficients."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    pairs = []
    lead = q[-1]
    while len(rem) >= len(q):
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - len(q)
        c = rem[-1] / lead
        pairs.append((k, c))
        for j in range(len(q)):
            rem[k + j] = rem[k + j] - c * q[j]
        rem.pop()
    if not pairs:
        return [], trim(rem)
    zero = lead - lead
    out = [zero] * (1 + max(k for k, _ in pairs))
    for k, c in pairs:
        out[k] = out[k] + c
    return trim(out), trim(rem)


def pgcd(p, q):
    """Monic gcd over field coefficients."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    return pmonic(a) if a else a


def is_squarefree(p):
    """No repeated factor: gcd(p, p') has degree <= 0.

    Rational p is scaled to a primitive integer polynomial and run through
    the primitive remainder sequence of (p, p'); by Gauss's lemma its last
    nonzero term has the degree of the gcd over Q.  Other coefficients go
    through ``pgcd``.
    """
    if not all(isinstance(c, (int, Fraction)) for c in p):
        return degree(pgcd(p, pderiv(p))) <= 0
    den = lcm(*(c.denominator for c in p))
    a = _primitive([c.numerator * (den // c.denominator) for c in p])
    b = _primitive(pderiv(a))
    while b:
        a, b = b, _primitive(_int_prem(a, b))
    return degree(a) <= 0


def _primitive(coeffs):
    """Integer coefficients divided by their content."""
    content = gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _int_prem(a, b):
    """The remainder of k*a by b for some nonzero integer k (integer
    coefficients, b nonzero)."""
    rem = list(a)
    lead = b[-1]
    while len(rem) >= len(b):
        g = gcd(lead, rem[-1])
        scale, c = lead // g, rem[-1] // g
        k = len(rem) - len(b)
        rem = [v * scale for v in rem]
        for j, v in enumerate(b):
            rem[k + j] -= c * v
        rem = trim(rem)
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
