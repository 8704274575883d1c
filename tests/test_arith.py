import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from cubesums import arith, expsums
from cubesums.densities import density_table
from cubesums.weights import nu_star


def test_factor_examples():
    assert arith.factor(360).factors == ((2, 3), (3, 2), (5, 1))
    assert arith.factor(1).factors == ()
    assert arith.factor(2**62).factors == ((2, 62),)


def test_factor_rejects_bad_input():
    # outside [1, 2^63 - 1], and cofactors of 2^42 or more with no prime
    # factor up to 2^21 (2097169 is the first prime above 2^21)
    for bad in (0, -5, 1 << 63, (1 << 61) - 1, 3 * ((1 << 61) - 1),
                2097169**2):
        with pytest.raises(ValueError):
            arith.factor(bad)
    with pytest.raises(ValueError):
        arith.factor(3.5)


def test_factor_matches_sympy_on_random_values():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randrange(2, 10**12)
        assert dict(arith.factor(n).factors) == sympy.factorint(n)
    # a few adversarial shapes: semiprimes with close factors, prime powers,
    # and cofactors that outlast the 2^16 sieve and make it grow
    for n in [10**12 + 39, 999983**2, 3**39, 600851475143, 65537 * 65539,
              2097143**2, 3 * 65537 * 2097143]:
        assert dict(arith.factor(n).factors) == sympy.factorint(n)


@given(st.integers(min_value=1, max_value=10**9))
def test_factor_reconstructs(n):
    f = arith.factor(n)
    assert math.prod(p**e for p, e in f.factors) == n
    assert all(e >= 1 and sympy.isprime(p) for p, e in f.factors)


def test_sq_cub_examples():
    d = arith.sq_cub_parts(12)
    assert (d.square_full, d.cube_full) == (4, 1)
    d = arith.sq_cub_parts(8)
    assert (d.square_full, d.cube_full) == (8, 8)
    d = arith.sq_cub_parts(1)
    assert (d.square_full, d.cube_full) == (1, 1)


@given(st.integers(min_value=1, max_value=10**7))
def test_sq_cub_parts_divide_and_split(n):
    d = arith.sq_cub_parts(n)
    assert n % d.square_full == 0 and d.square_full % d.cube_full == 0
    # the complement n / sq is squarefree, and every prime in sq has v >= 2
    rest = n // d.square_full
    assert all(e == 1 for _, e in arith.factor(rest).factors)
    assert all(e >= 2 for _, e in arith.factor(d.square_full).factors)
    assert all(e >= 3 for _, e in arith.factor(d.cube_full).factors)
    assert math.gcd(rest, d.square_full) == 1


def test_multiplicative_helpers_match_sympy():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 10**6)
        assert arith.mobius(n) == sympy.mobius(n)
        assert arith.rad(n) == math.prod(sympy.primefactors(n))


def test_v_p():
    assert arith.v_p(360, 2) == 3
    assert arith.v_p(360, 7) == 0
    assert arith.v_p(-24, 2) == 3
    with pytest.raises(ValueError):
        arith.v_p(0, 2)
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match="p >= 2"):
            arith.v_p(8, p)


def test_divisors():
    assert arith.divisors(28) == [1, 2, 4, 7, 14, 28]
    assert arith.divisors(1) == [1]


def test_admissible_classes():
    # obstruction is exactly a = +-4 mod 9
    bad = [a for a in range(-20, 21) if not arith.admissible(a)]
    assert bad == [a for a in range(-20, 21) if a % 9 in (4, 5)]
    assert arith.admissible(0) and arith.admissible(3) and not arith.admissible(-4)
    a = np.arange(-20, 21)
    assert arith.admissible(a).tolist() == [arith.admissible(x) for x in range(-20, 21)]


def test_primes_below():
    assert arith.primes_below(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(arith.primes_below(10**5)) == 9592
    # the sieve starts at 2^16 and grows to the largest limit asked for;
    # every answer is a slice of it, of Python ints
    limits = (0, 1, 2, 3, 65521, 65522, 1 << 16, (1 << 16) + 1, 10**6 + 1, 30)
    for limit in limits:
        got = arith.primes_below(limit)
        assert all(type(p) is int for p in got)
        lo = max(limit - 70_000, 0)  # all of [0, limit) up to 2^16 + 1
        assert [p for p in got if p >= lo] == \
            [n for n in range(lo, limit) if sympy.isprime(n)], limit
    # the rest below 10^6 + 1: ascending, pi(10^6) in all
    got = arith.primes_below(10**6 + 1)
    head = arith.primes_below(65537)
    assert got[:len(head)] == head and len(got) == 78498
    assert all(p < q for p, q in zip(got, got[1:]))


def test_is_prime_matches_sympy():
    # is_prime reads factor, so the sieve above is checked against sympy;
    # 4398046511093 is the largest prime below 2^42
    for n in [*range(-5, 3 * 10**5), 2097143, 4398046511093]:
        assert arith.is_prime(n) == sympy.isprime(n), n


# non-integers that once ran on: int(7.5) gave the modulus-7 vector, cached
# under 7.5; s_plus_zero returned 0 for both; density_table raised
# TypeError from deep inside
@pytest.mark.parametrize("call, name, value", [
    (lambda: expsums.point_count_vector(7.5), "modulus", "7.5"),
    (lambda: expsums.s_plus_zero(4.5, 2), "n", "4.5"),
    (lambda: expsums.s_plus_zero(4, 2.5), "d", "2.5"),
    (lambda: density_table(nu_star(2.0), 512.5), "grid_size", "512.5"),
], ids=["point_count_vector", "s_plus_zero-n", "s_plus_zero-d",
        "density_table"])
def test_non_integer_arguments_refused_by_the_one_check(call, name, value):
    with pytest.raises(ValueError,
                       match=f"^{name} must be a positive integer, "
                             f"got {name}={value}$"):
        call()
