"""Modular arithmetic, prime utilities, and the instrumented exponentiation.

The map z -> prod_i x_i^{z_i} mod N is written once, in two forms:
power_product at one exponent vector, and power_grid over a box of them
(per-axis power tables, multiplied out by outer products).  The coset
expansion, the statevector grid and the witness search all use these.

The exponentiation schedule here is the classical inner loop of the whole
factoring procedure: one full-width squaring of the accumulator per bit of
the exponent range, with all other multiplications kept on small operands
via balanced product trees.  An OpCounter collects exactly the quantities
the gate-cost model talks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """A configured desk-scale cap would be exceeded."""


class FactorFound(Exception):
    """A computation stumbled on a nontrivial factor before finishing."""

    def __init__(self, modulus: int, factor: int, where: str = ""):
        super().__init__(f"{factor} divides {modulus}" + (f" ({where})" if where else ""))
        self.modulus = modulus
        self.factor = factor
        self.where = where


# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ParameterError("integer_root needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)  # upper start for Newton descent
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def perfect_power_root(n: int) -> int | None:
    """Some c with c**k == n for k >= 2, or None if n is not a perfect power."""
    if n < 4:
        return None
    for k in range(2, n.bit_length() + 1):
        c = integer_root(n, k)
        if c >= 2 and c ** k == n:
            return c
    return None


@dataclass(frozen=True)
class Precheck:
    status: str  # "proceed" | "factor" | "prime"
    factor: int | None = None
    reason: str = ""


def precheck(N: int) -> Precheck:
    """Classify N before the main procedure: trivial factor, prime, or go.

    Total function for N >= 2; "proceed" is returned exactly for odd
    composite numbers that are not perfect powers.
    """
    if N < 2:
        raise ParameterError("N must be at least 2")
    if is_probable_prime(N):
        return Precheck("prime", reason="probable prime")
    if N % 2 == 0:
        return Precheck("factor", 2, "even")
    c = perfect_power_root(N)
    if c is not None:
        return Precheck("factor", c, "perfect power")
    return Precheck("proceed")


def nth_primes(d: int) -> list[int]:
    """The first d primes, in order."""
    if d < 1:
        raise ParameterError("d must be positive")
    if d < 6:
        limit = 13
    else:
        x = float(d)
        limit = int(x * (math.log(x) + math.log(math.log(x)))) + 3
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        primes = [i for i in range(limit + 1) if sieve[i]]
        if len(primes) >= d:
            return primes[:d]
        limit *= 2


@dataclass
class OpCounter:
    """Operation counts for one exponentiation-style computation.

    squarings_nbit counts modular squarings of full-width (n-bit) numbers;
    small_products counts multiplications whose result stayed below n bits;
    nbit_products counts everything that touched a full-width operand.
    """

    squarings_nbit: int = 0
    small_products: int = 0
    nbit_products: int = 0


@dataclass(frozen=True)
class FactoringInstance:
    """A factoring target N with its small square bases.

    b holds d pairwise-distinct small positive integers coprime to N
    (the first d primes unless overridden) and a_i = b_i^2.
    """

    N: int
    n: int
    d: int
    b: tuple[int, ...]
    a: tuple[int, ...]

    @classmethod
    def build(cls, N: int, d: int, b=None) -> "FactoringInstance":
        if N < 15:
            raise ParameterError("N must be at least 15")
        if N % 2 == 0:
            raise ParameterError("N must be odd")
        if perfect_power_root(N) is not None:
            raise ParameterError("N must not be a perfect power")
        if d < 1:
            raise ParameterError("d must be positive")
        bases = tuple(nth_primes(d)) if b is None else tuple(int(x) for x in b)
        if len(bases) != d:
            raise ParameterError("need exactly d base elements")
        if any(x < 1 for x in bases):
            raise ParameterError("base elements must be positive")
        if len(set(bases)) != d:
            raise ParameterError("base elements must be pairwise distinct")
        for x in bases:
            g = gcd(x, N)
            if g > 1:
                # a shared factor with a base is already the answer
                raise FactorFound(N, g, where="instance construction")
        return cls(N=N, n=N.bit_length(), d=d, b=bases, a=tuple(x * x for x in bases))


def _tree_product_mod(values: list[int], N: int, nbits: int, counter: OpCounter) -> int:
    """Balanced product of `values` mod N, reducing only past nbits width."""
    vals = list(values)
    while len(vals) > 1:
        nxt = []
        for x, y in zip(vals[0::2], vals[1::2]):
            p = x * y
            if p.bit_length() > nbits:
                p %= N
                counter.nbit_products += 1
            else:
                counter.small_products += 1
            nxt.append(p)
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0] % N


def product_tree_exponentiation(
    inst: FactoringInstance, z, exponent_bound: int, counter: OpCounter | None = None
) -> int:
    """Compute prod_i a_i^{z_i} mod N by the square-and-subset schedule.

    Walking the exponent bits most-significant first, the accumulator is
    squared once per bit of the range [0, exponent_bound) -- independent of
    d and of the particular exponents -- and then multiplied by the balanced
    product tree of the bases whose current bit is set.

    Raises ParameterError if any exponent falls outside [0, exponent_bound).
    """
    if counter is None:
        counter = OpCounter()
    zz = tuple(int(x) for x in z)
    if len(zz) != inst.d:
        raise ParameterError("exponent vector length must equal d")
    if exponent_bound < 1:
        raise ParameterError("exponent bound must be positive")
    if any(x < 0 or x >= exponent_bound for x in zz):
        raise ParameterError("exponents must lie in [0, exponent_bound)")
    N = inst.N
    bits = (exponent_bound - 1).bit_length()
    acc = 1
    for j in range(bits - 1, -1, -1):
        acc = acc * acc % N
        counter.squarings_nbit += 1
        subset = [inst.a[i] for i in range(inst.d) if (zz[i] >> j) & 1]
        if subset:
            acc = acc * _tree_product_mod(subset, N, inst.n, counter) % N
            counter.nbit_products += 1
    return acc


def power_product(bases, z, N: int) -> int:
    """prod_i x_i^{z_i} mod N for arbitrary-sign integer exponents; a
    negative exponent goes through the modular inverse."""
    r = 1
    for x, zi in zip(bases, z, strict=True):
        r = r * pow(x, int(zi), N) % N
    return r


def power_grid(bases, N: int, sizes, lo: int = 0) -> np.ndarray:
    """prod_i x_i^{lo + j_i} mod N for every j in the box prod_i {0..sizes[i]-1}.

    Returns an array of shape tuple(sizes), axis i running over the exponent
    of bases[i]: one power table per axis, built by repeated doubling, and
    multiplied mod N over the box by outer products, each reduced in place.
    The entries are int64 when N < 2^31, so every product stays below
    2^62, and Python ints (dtype object) otherwise.  A negative lo goes
    through the modular inverse.
    """
    dtype = np.int64 if N < 1 << 31 else object
    grid = np.ones((), dtype=dtype)
    for x, size in zip(bases, sizes, strict=True):
        table = np.empty(size, dtype=dtype)
        table[0] = pow(x, lo, N)
        filled = 1
        while filled < size:  # doubling: x^(lo+f+j) = x^(lo+j) * x^f
            step = min(filled, size - filled)
            table[filled : filled + step] = table[:step] * pow(x, filled, N) % N
            filled += step
        grid = np.multiply.outer(grid, table)
        np.remainder(grid, N, out=grid)
    return grid


def hom_image(inst: FactoringInstance, z) -> int:
    """The homomorphism z -> prod_i a_i^{z_i} mod N, for arbitrary-sign
    integer exponents."""
    return power_product(inst.a, z, inst.N)
