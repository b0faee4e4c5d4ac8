"""Dense polynomial and small exact linear-algebra helpers.

Polynomials are plain lists of coefficients, constant term first, trailing
zeros stripped.  Coefficients may be Fractions or any of the package's
element types; everything here only uses ``+ - *`` (and ``/`` where a field
is documented), so one implementation serves Q, towers, and etale algebras.
"""

from fractions import Fraction


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
    g = pgcd(p, pderiv(p))
    return degree(g) <= 0


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


def mat_trace(a):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def charpoly(mat, one):
    """det(T*I - mat) as a monic coefficient list, constant term first.

    Faddeev-LeVerrier; needs the coefficient ring to be a Q-algebra (we
    divide by the integers 1..n), which everything here is.
    """
    n = len(mat)
    if n == 0:
        return [one]
    zero = one - one
    coeffs = [None] * (n + 1)
    coeffs[n] = one
    m = [[zero] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = one
    c = one
    for k in range(1, n + 1):
        m = mat_mul(mat, m)
        c = mat_trace(m) * Fraction(-1, k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


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
