"""Integer arithmetic primitives shared by every other module.

Factorization is fully deterministic: trial division against a cached prime
sieve, then Miller-Rabin (deterministic witness set, valid below 2^64) plus
Brent's cycle-finding rho with a fixed parameter schedule for the rare large
cofactor.
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
    # Python ints: factor divides by them, and is_prime's pow() rejects the
    # numpy int cofactor that a numpy prime would leave
    _sieve_primes = np.flatnonzero(mask).tolist()
    _SIEVE_LIMIT = limit


def primes_below(limit: int) -> list[int]:
    """All primes < limit, ascending."""
    _grow_sieve(limit)
    return _sieve_primes[:bisect_left(_sieve_primes, limit)]


# deterministic Miller-Rabin witnesses, sufficient for n < 2^64
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
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


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite n; deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for n < 2^63


@dataclass(frozen=True)
class Factored:
    """Canonical factorization value = prod p^e, factors sorted by p."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def v(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def divisors(self) -> list[int]:
        ds = [1]
        for p, e in self.factors:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return sorted(ds)


@lru_cache(maxsize=65536)
def factor(n: int) -> Factored:
    """Factor 1 <= n <= 2^63 - 1; raises ValueError outside that range."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"factor expects an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1 or n > MAX_N:
        raise ValueError(f"factor argument {n} outside [1, 2^63 - 1]")
    if n == 1:
        return Factored(1, ())
    _grow_sieve(_SIEVE_LIMIT)
    m = n
    fac: dict[int, int] = {}
    for p in _sieve_primes:
        if p * p > m:
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.extend((g, m // g))
    return Factored(n, tuple(sorted(fac.items())))


def divisors(n: int) -> list[int]:
    return factor(n).divisors()


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


def admissible(a: int) -> bool:
    """No congruence obstruction mod 9: a is not +-4 mod 9."""
    return a % 9 not in (4, 5)
