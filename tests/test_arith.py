import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfactor import arith
from qfactor.arith import (
    FactoringInstance,
    FactorFound,
    OpCounter,
    ParameterError,
    nth_primes,
    precheck,
    product_tree_exponentiation,
)


def naive_modpow_product(a, z, N):
    """Independent oracle: plain per-coordinate modpow product."""
    r = 1
    for ai, zi in zip(a, z):
        r = r * pow(ai, zi, N) % N
    return r


def is_prime_trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# --- precheck -------------------------------------------------------------


def test_precheck_even():
    res = precheck(16)
    assert res.status == "factor" and res.factor == 2


def test_precheck_perfect_power():
    res = precheck(27)
    assert res.status == "factor" and res.factor == 3
    assert 27 % res.factor == 0


def test_precheck_proceed_77():
    # oracle: 77 is odd, composite (7 * 11), and not a perfect power
    assert not is_prime_trial_division(77)
    assert 77 % 2 == 1
    assert all(round(77 ** (1 / k)) ** k != 77 for k in range(2, 8))
    assert precheck(77).status == "proceed"


@pytest.mark.parametrize("p", [2, 3, 17, 101, 7919])
def test_precheck_prime(p):
    assert is_prime_trial_division(p)
    assert precheck(p).status == "prime"


def test_precheck_total_on_range():
    for n in range(2, 500):
        res = precheck(n)
        if res.status == "factor":
            assert 1 < res.factor < n and n % res.factor == 0
        elif res.status == "prime":
            assert is_prime_trial_division(n)
        else:
            assert n % 2 == 1 and not is_prime_trial_division(n)


def test_precheck_rejects_tiny():
    with pytest.raises(ParameterError):
        precheck(1)


# --- primes ---------------------------------------------------------------


def test_nth_primes_small():
    assert nth_primes(1) == [2]
    assert nth_primes(5) == [2, 3, 5, 7, 11]


def test_nth_primes_25th_is_97():
    primes = nth_primes(25)
    assert primes[-1] == 97
    assert all(is_prime_trial_division(p) for p in primes)
    # no prime skipped: everything between consecutive entries is composite
    for a, b in zip(primes, primes[1:]):
        assert all(not is_prime_trial_division(x) for x in range(a + 1, b))


def test_integer_root():
    for n in (0, 1, 2, 63, 64, 65, 10**12):
        for k in (1, 2, 3, 5):
            r = arith.integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


# --- instance construction ------------------------------------------------


def test_instance_defaults_to_primes():
    inst = FactoringInstance.build(77, 2)
    assert inst.b == (2, 3)
    assert inst.a == (4, 9)
    assert inst.n == 7
    assert 2 ** (inst.n - 1) <= inst.N < 2**inst.n


def test_instance_gcd_short_circuit():
    with pytest.raises(FactorFound) as info:
        FactoringInstance.build(15, 2)  # b_2 = 3 shares a factor with 15
    assert info.value.factor == 3


@pytest.mark.parametrize(
    "N, d, b",
    [
        (14, 1, None),  # even
        (13, 1, None),  # too small
        (27, 1, None),  # perfect power
        (77, 2, (2, 2)),  # duplicate bases
        (77, 2, (2,)),  # wrong length
        (77, 1, (0,)),  # nonpositive base
    ],
)
def test_instance_rejects(N, d, b):
    with pytest.raises(ParameterError):
        FactoringInstance.build(N, d, b)


# --- exponentiation schedule ----------------------------------------------


def test_examples_against_naive_oracle():
    inst = FactoringInstance.build(77, 2)
    assert naive_modpow_product(inst.a, (1, 1), 77) == 36
    assert product_tree_exponentiation(inst, (1, 1), 2) == 36

    inst15 = FactoringInstance.build(15, 1)
    assert naive_modpow_product(inst15.a, (3,), 15) == 4
    assert product_tree_exponentiation(inst15, (3,), 4) == 4


def test_zero_vector_gives_one():
    inst = FactoringInstance.build(221, 3)
    assert product_tree_exponentiation(inst, (0, 0, 0), 16) == 1


def test_random_cases_match_naive(rng=np.random.default_rng(11)):
    # moduli coprime to the first few primes so any d <= 4 builds cleanly
    moduli = [143, 221, 323, 391, 899]
    for _ in range(300):
        N = int(rng.choice(moduli))
        d = int(rng.integers(1, 5))
        inst = FactoringInstance.build(N, d)
        D = 1 << int(rng.integers(1, 9))
        z = tuple(int(rng.integers(0, D)) for _ in range(d))
        assert product_tree_exponentiation(inst, z, D) == naive_modpow_product(
            inst.a, z, N
        )


def test_squaring_count_is_exponent_range_bits():
    # the count depends on the range alone, not on d or the exponents
    for d in (1, 2, 4, 7):
        inst = FactoringInstance.build(899, d)  # 29 * 31, coprime to b_1..b_7
        for D in (2, 4, 8, 64, 1024):
            for z in [(0,) * d, (D - 1,) * d, tuple(range(1, d + 1))]:
                if any(x >= D for x in z):
                    continue
                counter = OpCounter()
                product_tree_exponentiation(inst, z, D, counter)
                assert counter.squarings_nbit == (D - 1).bit_length()


def test_counter_counts_are_nonnegative_and_accumulate():
    inst = FactoringInstance.build(221, 4)
    counter = OpCounter()
    product_tree_exponentiation(inst, (3, 5, 7, 2), 8, counter)
    first = dataclasses.asdict(counter)
    assert all(v >= 0 for v in first.values())
    product_tree_exponentiation(inst, (3, 5, 7, 2), 8, counter)
    second = dataclasses.asdict(counter)
    assert all(second[k] >= first[k] for k in first)
    assert second["squarings_nbit"] == 2 * first["squarings_nbit"]


def test_exponent_bound_enforced():
    inst = FactoringInstance.build(15, 1)
    with pytest.raises(ParameterError):
        product_tree_exponentiation(inst, (4,), 4)
    with pytest.raises(ParameterError):
        product_tree_exponentiation(inst, (-1,), 4)


@settings(max_examples=60, deadline=None)
@given(
    z1=st.tuples(*[st.integers(0, 31)] * 3),
    z2=st.tuples(*[st.integers(0, 31)] * 3),
)
def test_homomorphism_property(z1, z2):
    inst = FactoringInstance.build(143, 3)
    h = lambda z, D: product_tree_exponentiation(inst, z, D)
    lhs = h(tuple(a + b for a, b in zip(z1, z2)), 64)
    rhs = h(z1, 32) * h(z2, 32) % inst.N
    assert lhs == rhs


def test_hom_image_handles_negative_exponents():
    inst = FactoringInstance.build(15, 1)
    assert arith.hom_image(inst, (-2,)) == pow(4, -2, 15)
    assert arith.power_product(inst.b, (-2,), 15) == pow(2, -2, 15)
