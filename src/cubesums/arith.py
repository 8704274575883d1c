"""Integer arithmetic primitives shared by every other module.

Factorization is trial division over one cached prime sieve, and that sieve
is the only primality test.  The sieve starts at 2^16 and grows, at most to
2^21, only when a cofactor outlasts its primes; a cofactor left below 2^42
is then prime.  Every modulus the package factors lies below 2^21 or is a
product of such prime powers, so the one uncertified case, a cofactor at or
above 2^42, is refused with ValueError.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SIEVE_LIMIT = 1 << 16
_sieve_primes: list[int] = []

MAX_N = (1 << 63) - 1  # factorable range contract; also the int64 range
# factor grows the sieve to this bound at most; every cofactor with no prime
# factor up to it and below its square is prime
_TRIAL_LIMIT = 1 << 21


def _check_positive_int(name: str, value) -> None:
    """ValueError "<name> must be a positive integer, got <name>=<value>"
    unless value is an int or numpy integer >= 1.  A float would run on:
    d = 1.5 passes a % d == 0 on the multiples of 3, X = 8.5 counts at a
    scale no CLI run asks for, and int(7.5) would serve the modulus-7 vector.
    """
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, "
                         f"got {name}={value!r}")


def _grow_sieve(limit: int) -> None:
    global _sieve_primes, _SIEVE_LIMIT
    if _sieve_primes and limit <= _SIEVE_LIMIT:
        return
    limit = max(limit, _SIEVE_LIMIT)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    # Python ints: the factors that factor returns go into powers and
    # products that would overflow as numpy int64
    _sieve_primes = np.flatnonzero(mask).tolist()
    _SIEVE_LIMIT = limit


def primes_below(limit: int) -> list[int]:
    """All primes < limit, ascending."""
    _grow_sieve(limit)
    return _sieve_primes[:bisect_left(_sieve_primes, limit)]


def is_prime(n: int) -> bool:
    """Primality from the sieve; ValueError where factor has no certificate."""
    return n >= 2 and factor(n).factors == ((n, 1),)


@dataclass(frozen=True)
class Factored:
    """Canonical factorization value = prod p^e, factors sorted by p."""

    value: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=65536)
def factor(n: int) -> Factored:
    """Factor 1 <= n <= 2^63 - 1 by trial division over the sieve.

    Raises ValueError outside that range, and when the cofactor left by the
    primes up to 2^21 is 2^42 or more: trial division certifies no such
    cofactor.  The answer does not depend on how far the sieve has grown.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"factor expects an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1 or n > MAX_N:
        raise ValueError(f"factor argument {n} outside [1, 2^63 - 1]")
    _grow_sieve(_SIEVE_LIMIT)
    m = n
    fac: dict[int, int] = {}
    stop = min(math.isqrt(m), _TRIAL_LIMIT)  # the largest prime to try
    while True:
        for p in _sieve_primes:
            if p > stop:
                break
            while m % p == 0:
                fac[p] = fac.get(p, 0) + 1
                m //= p
                stop = min(math.isqrt(m), _TRIAL_LIMIT)
        else:
            if _SIEVE_LIMIT < stop:  # m outlasts the sieve: grow it, go again
                _grow_sieve(stop)
                continue
        break
    if m >= _TRIAL_LIMIT**2:
        raise ValueError(f"factor({n}) leaves the cofactor {m} >= 2^42, "
                         "which trial division to 2^21 does not certify")
    if m > 1:
        fac[m] = 1
    return Factored(n, tuple(sorted(fac.items())))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factor(n).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def v_p(n: int, p: int) -> int:
    """p-adic valuation of n != 0 at p >= 2."""
    if n == 0:
        raise ValueError("v_p undefined at 0")
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, got p={p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def mobius(n: int) -> int:
    fac = factor(n).factors
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def rad(n: int) -> int:
    out = 1
    for p, _ in factor(n).factors:
        out *= p
    return out


@dataclass(frozen=True)
class PartDecomposition:
    """Square-full and cube-full parts of n: the subproducts of p^{v_p(n)}
    over primes with v_p(n) >= 2 resp. >= 3."""

    value: int
    square_full: int
    cube_full: int


def sq_cub_parts(n: int) -> PartDecomposition:
    if n < 1:
        raise ValueError(f"sq_cub_parts expects n >= 1, got {n}")
    sq = cub = 1
    for p, e in factor(n).factors:
        if e >= 2:
            sq *= p**e
        if e >= 3:
            cub *= p**e
    return PartDecomposition(n, sq, cub)


def admissible(a):
    """No congruence obstruction mod 9: a is not +-4 mod 9.  Elementwise on
    an integer array."""
    r = a % 9
    return (r != 4) & (r != 5)
