"""Exact integer-matrix utilities: echelon bases, normal forms, determinants.

Everything works on plain Python ints (arbitrary precision), with
matrices as lists of rows.  No Fraction is needed: each elimination step
divides only for an integer quotient (Euclid's, or Bareiss's exact one).
Dimensions stay in the low tens, so clarity and exactness win
over asymptotics throughout.
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def determinant(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _pivot(row) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return len(row)


def hermite_basis(vectors, dim: int) -> list[list[int]]:
    """Row-style Hermite basis of the lattice generated by `vectors`.

    Returns the nonzero rows in echelon order: strictly increasing pivot
    columns, positive pivots, and entries above each pivot reduced to
    [0, pivot).  The rows generate exactly the integer span of the input.
    """
    rows: dict[int, list[int]] = {}  # pivot column -> row
    for vec in vectors:
        v = list(vec)
        if len(v) != dim:
            raise ValueError("vector length does not match ambient dimension")
        j = _pivot(v)
        while j < dim:
            if j not in rows:
                if v[j] < 0:
                    v = [-x for x in v]
                rows[j] = v
                break
            r = rows[j]
            a, b = r[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, r)]
            else:
                g, x, y = xgcd(a, b)
                bg, ag = b // g, a // g
                new_r = [x * p + y * q for p, q in zip(r, v)]
                v = [-bg * p + ag * q for p, q in zip(r, v)]
                rows[j] = new_r
            j = _pivot(v)
    # reduce entries above each pivot, sweeping pivot columns left to right
    # so later sweeps never disturb columns already canonicalized
    pivots = sorted(rows)
    for hi in pivots:
        p = rows[hi][hi]
        for lo in pivots:
            if lo >= hi:
                break
            q = rows[lo][hi] // p
            if q:
                rows[lo] = [x - q * y for x, y in zip(rows[lo], rows[hi])]
    return [rows[j] for j in pivots]


def lattice_contains(echelon_rows, v) -> bool:
    """Membership of integer vector v in the span of echelon-form rows."""
    w = list(v)
    by_pivot = {_pivot(r): r for r in echelon_rows}
    j = _pivot(w)
    while j < len(w):
        r = by_pivot.get(j)
        if r is None or w[j] % r[j]:
            return False
        q = w[j] // r[j]
        w = [x - q * y for x, y in zip(w, r)]
        j = _pivot(w)
    return True


def smith_normal_form(m) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Smith decomposition U @ M @ V = diag(s) with s1 | s2 | ... | sr.

    U and V are unimodular; the returned diagonal is nonnegative.  Intended
    for the small square matrices of this package, but handles any shape.
    """
    a = [list(row) for row in m]
    nrows, ncols = len(a), len(a[0])
    u = identity(nrows)
    v = identity(ncols)

    def row_combine(i1, i2, x, y, p, q):
        # (row i1, row i2) <- (x*r1 + y*r2, p*r1 + q*r2), det +-1
        for mat in (a, u):
            r1, r2 = mat[i1], mat[i2]
            mat[i1] = [x * s + y * t for s, t in zip(r1, r2)]
            mat[i2] = [p * s + q * t for s, t in zip(r1, r2)]

    def col_combine(j1, j2, x, y, p, q):
        for mat in (a, v):
            for row in mat:
                s, t = row[j1], row[j2]
                row[j1] = x * s + y * t
                row[j2] = p * s + q * t

    rank = min(nrows, ncols)
    for t in range(rank):
        # move a nonzero entry to (t, t)
        found = False
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j]:
                    found = True
                    break
            if found:
                break
        if not found:
            rank = t
            break
        if i != t:
            a[i], a[t] = a[t], a[i]
            u[i], u[t] = u[t], u[i]
        if j != t:
            for mat in (a, v):
                for row in mat:
                    row[j], row[t] = row[t], row[j]
        # alternate row/column clearing until both are zero off the pivot
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        row_combine(t, i, 1, 0, -(q // p), 1)
                    else:
                        g, x, y = xgcd(p, q)
                        row_combine(t, i, x, y, -(q // g), p // g)
            for j in range(t + 1, ncols):
                if a[t][j]:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        col_combine(t, j, 1, 0, -(q // p), 1)
                    else:
                        g, x, y = xgcd(p, q)
                        col_combine(t, j, x, y, -(q // g), p // g)
            if all(a[i][t] == 0 for i in range(t + 1, nrows)) and all(
                a[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    # enforce the divisibility chain: diag(d1, d2) -> diag(gcd, lcm)
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            d1, d2 = a[t][t], a[t + 1][t + 1]
            if d1 and d2 % d1:
                row_combine(t, t + 1, 1, 1, 0, 1)  # row t gets [d1, d2]
                g, x, y = xgcd(d1, d2)
                col_combine(t, t + 1, x, y, -(d2 // g), d1 // g)
                fill = a[t + 1][t]
                row_combine(t, t + 1, 1, 0, -(fill // g), 1)
                if a[t][t] < 0:
                    a[t] = [-s for s in a[t]]
                    u[t] = [-s for s in u[t]]
                if a[t + 1][t + 1] < 0:
                    a[t + 1] = [-s for s in a[t + 1]]
                    u[t + 1] = [-s for s in u[t + 1]]
                changed = True
    diag = [a[t][t] for t in range(min(nrows, ncols))]
    # sanity: the decomposition must reproduce the diagonal exactly
    check = mat_mul(mat_mul(u, [list(row) for row in m]), v)
    for i in range(nrows):
        for j in range(ncols):
            want = diag[i] if i == j and i < len(diag) else 0
            if check[i][j] != want:
                raise AssertionError("Smith decomposition self-check failed")
    return u, diag, v

