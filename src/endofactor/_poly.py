"""Dense polynomial and small exact linear-algebra helpers.

Polynomials are plain lists of coefficients, constant term first, trailing
zeros stripped.  Coefficients may be Fractions or any of the package's
element types; everything here only uses ``+ - *`` (and ``/`` where a field
is documented), so one implementation serves Q, towers, and etale algebras.
``charpoly`` needs a field (Q, or the quadratic field E of the unitary
cases); ``is_squarefree`` works over Z when the coefficients are Fractions.
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


def padd(p, q):
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        if k < len(p) and k < len(q):
            out.append(p[k] + q[k])
        elif k < len(p):
            out.append(p[k])
        else:
            out.append(q[k])
    return trim(out)


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

def mat_mul(a, b):
    n, m, r = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            t = a[i][0] * b[0][j]
            for k in range(1, r):
                t = t + a[i][k] * b[k][j]
            row.append(t)
        out.append(row)
    return out


def charpoly(mat, one):
    """det(T*I - mat) as a monic coefficient list, constant term first.

    Hessenberg reduction by similarity, then the recurrence for the
    characteristic polynomial of a Hessenberg matrix (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9).  The entries must
    lie in a field.
    """
    n = len(mat)
    zero = one - one
    h = [list(row) for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = one / h[m][m - 1]
        pivot_row = h[m]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            # row i -= u * row m, then column m += u * column i
            u = h[i][m - 1] * inv
            row = h[i]
            row[m - 1] = zero
            for j in range(m, n):
                if pivot_row[j]:
                    row[j] = row[j] - u * pivot_row[j]
            for r in h:
                if r[i]:
                    r[m] = r[m] + u * r[i]
    polys = [[one]]
    for m in range(1, n + 1):
        prev = polys[-1]
        diag = h[m - 1][m - 1]
        cur = [zero] + prev
        for k in range(m):
            cur[k] = cur[k] - diag * prev[k]
        sub = one
        for i in range(m - 1, 0, -1):
            sub = sub * h[i][i - 1]
            if not sub:
                break
            c = sub * h[i - 1][m - 1]
            if c:
                for k, v in enumerate(polys[i - 1]):
                    cur[k] = cur[k] - c * v
        polys.append(cur)
    return polys[n]


def gauss_solve(mat, rhs):
    """Solve mat*x = rhs over Fractions; raises ZeroDivisionError if singular."""
    n = len(mat)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def gauss_det(mat):
    """Determinant over Fractions."""
    n = len(mat)
    a = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det
