"""Reference forms of the Smith-transform pairing, for the tests only.

The package pairs dual cosets with primal cosets on the Smith diagonal
alone.  These helpers keep the form it replaced, which goes through the
transform U itself: the primal coset representatives U^{-1} y, with U
inverted exactly over Fractions, and the dual cosets U^T diag(det / s) x
mod det.  The separation suite is cross-checked against them.
"""

import itertools
from fractions import Fraction


def inverse_fractions(m) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square matrix, as Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def unimodular_inverse(m) -> list[list[int]]:
    """Integer inverse of a unimodular matrix."""
    inv = inverse_fractions(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def quotient_reps(dual) -> list[tuple[int, ...]]:
    """Coset representatives of the primal quotient Z^d / L: U^{-1} y for y
    in Z_{s_1} x ... x Z_{s_d}, in C order over y."""
    u = [list(col) for col in zip(*dual.u_transpose)]
    u_inverse = unimodular_inverse(u)
    return [
        tuple(sum(a * b for a, b in zip(row, y)) for row in u_inverse)
        for y in itertools.product(*(range(s) for s in dual.snf_diag))
    ]


def scaled_coset(dual, x) -> tuple[int, ...]:
    """det times the dual coset of quotient coordinates x, mod det:
    U^T diag(det / s) x."""
    return tuple(
        sum(row[j] * x[j] * (dual.det // dual.snf_diag[j]) for j in range(dual.d)) % dual.det
        for row in dual.u_transpose
    )
