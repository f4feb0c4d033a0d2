import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_reference import inverse_fractions, unimodular_inverse

from qfactor import intmat


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_identity(a, b):
    g, x, y = intmat.xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def _det_oracle(m):
    # cofactor expansion, independent of the Bareiss path
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_oracle(minor)
    return total


def test_determinant_matches_cofactor_expansion():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = [[int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(n)]
        assert intmat.determinant(m) == _det_oracle(m)


def test_hermite_basis_known_cases():
    assert intmat.hermite_basis([[2], [4]], 1) == [[2]]
    assert intmat.hermite_basis([[6], [4]], 1) == [[2]]
    rows = intmat.hermite_basis([[2, 0], [0, 3], [1, 1]], 2)
    # (2,0),(0,3),(1,1) generate Z^2: gcd reasoning gives (1,1),(0,?) pivots
    assert abs(intmat.determinant(rows)) == 1


def test_hermite_basis_canonical_and_span_preserving():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        vecs = [
            [int(rng.integers(-6, 7)) for _ in range(dim)]
            for _ in range(int(rng.integers(1, 5)))
        ]
        rows = intmat.hermite_basis(vecs, dim)
        # every generator reduces to zero against the basis
        for v in vecs:
            assert intmat.lattice_contains(rows, v)
        # canonical: positive pivots, entries above reduced
        pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
        assert pivots == sorted(pivots)
        for i, r in enumerate(rows):
            p = r[pivots[i]]
            assert p > 0
            for k in range(i):
                assert 0 <= rows[k][pivots[i]] < p


def test_lattice_contains_negative_case():
    rows = intmat.hermite_basis([[2, 0], [0, 2]], 2)
    assert intmat.lattice_contains(rows, [4, -2])
    assert not intmat.lattice_contains(rows, [1, 0])
    assert not intmat.lattice_contains(rows, [2, 1])


def test_smith_normal_form_properties():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = [[int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(n)]
        u, diag, v = intmat.smith_normal_form(m)  # self-checks U m V == diag
        assert abs(intmat.determinant(u)) == 1
        assert abs(intmat.determinant(v)) == 1
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_smith_normal_form_example():
    _, diag, _ = intmat.smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    assert diag == [1, 10, 30]


# the exact inverses of the test references, which invert the Smith transform

def test_unimodular_inverse_roundtrip():
    u = [[1, 2], [1, 3]]
    inv = unimodular_inverse(u)
    assert intmat.mat_mul(u, inv) == intmat.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_inverse_fractions():
    m = [[2, 1], [1, 1]]
    inv = inverse_fractions(m)
    prod = intmat.mat_mul(m, inv)
    assert prod == intmat.identity(2)
    with pytest.raises(ValueError):
        inverse_fractions([[1, 2], [2, 4]])


@settings(max_examples=50)
@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4))
def test_determinant_transpose_invariant(entries):
    m = [entries[:2], entries[2:]]
    assert intmat.determinant(m) == intmat.determinant(intmat.transpose(m))
