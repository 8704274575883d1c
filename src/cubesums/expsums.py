"""Complete exponential sums and p-adic densities for the ternary cubic
F0(y) = y1^3 + y2^3 + y3^3.

Everything here is exact.  The vector of point counts N_a(m) = #{y in
(Z/m)^3 : F0(y) = a} is the CRT product of prime-power vectors.  At a prime
p != 3 it takes at most four values (one when p = 2 mod 3), each an O(p) sum
over the cube histogram; higher powers follow by Hensel lifting, with
the 27-residue counts as the base at p = 3 (Ireland & Rosen, ch. 8).  The
triple cyclic self-convolution of the cube histogram by Kronecker
substitution (_cyclic_conv) is kept as the independent oracle.  Counts sum
to m^3 < 2^63, so the result is always int64.  The unit-twisted sums

    T_a(n) = sum_{u in (Z/n)*} sum_{y in (Z/n)^3} e_n(u (F0(y) - a))

come out of point counts at consecutive prime-power levels:

    T_a(p^l) = p^l N_a(p^l) - p^{l-1} p^3 N_a(p^{l-1}),   N_a(p^0) := 1.

T_a(n) is multiplicative in n (for fixed a, by the Chinese remainder
theorem), integer valued, and |T_a(n)| <= n^4 always, so vectors occasionally
leave int64 for very rough n; those escalate to Python integers.  Nothing
here is disk-cached: a vector recomputes in int64 in well under a second.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import CheckFailed, cache
from .arith import (MAX_N as INT64_MAX, _check_int, divisors, factor,
                    is_prime, primes_below, v_p)

# prime powers above this are left out of the Euler factors of _sigma_p_of_d;
# kept at 4096 because the Euler products that variance prints depend on this
# truncation
LOCAL_MODULUS_CAP = 4096

# largest supported modulus: y^3 must stay inside int64 during the histogram
MAX_MODULUS = (1 << 21) - 1


def _check_modulus(m: int) -> int:
    _check_int("modulus", m, 1, MAX_MODULUS)
    return int(m)


def _check_prime(p: int) -> None:
    """ValueError unless p is a prime; above MAX_MODULUS, where no p-power
    vector exists, p is refused before it is factored."""
    _check_int("p", p, None, MAX_MODULUS)
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got p={p}")


@lru_cache(maxsize=1024)
def cube_counts(m: int) -> np.ndarray:
    """Histogram counts[v] = #{y in Z/m : y^3 = v (mod m)}."""
    m = _check_modulus(m)
    y = np.arange(m, dtype=np.int64)
    counts = np.bincount((y * y % m) * y % m, minlength=m)
    counts.flags.writeable = False
    return counts


def _cyclic_conv(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact cyclic convolution of nonnegative int64 sequences of length m.

    Kronecker substitution with a w-byte slot per entry: no entry of the
    linear convolution exceeds sum(a) * sum(b) < 2^(8w), so slots never
    carry into each other and w <= 8 while that bound stays inside int64.
    """
    bound = int(a.sum()) * int(b.sum())
    if bound > INT64_MAX:
        raise CheckFailed(f"cyclic convolution at m={m} would leave int64")
    w = bound.bit_length() // 8 + 1

    def pack(v: np.ndarray) -> int:
        raw = v.astype("<i8").view(np.uint8).reshape(m, 8)[:, :w]
        return int.from_bytes(raw.tobytes(), "little")

    slots = np.zeros((2 * m, 8), dtype=np.uint8)
    product = (pack(a) * pack(b)).to_bytes(2 * m * w, "little")
    slots[:, :w] = np.frombuffer(product, dtype=np.uint8).reshape(2 * m, w)
    lin = slots.view("<i8").ravel()
    return lin[:m] + lin[m:]


def _level_one_counts(p: int) -> np.ndarray:
    """N_a(p) for a prime p != 3.

    For p = 2 mod 3 cubing permutes Z/p, so N_a(p) = p^2.  For p = 1 mod 3
    the cube histogram is invariant under the subgroup H of nonzero cubes,
    hence so are its convolutions: each is constant on {0} and on the three
    cosets of H, so its values at one representative of each, O(p) work,
    give all of it.
    """
    if p % 3 == 2:
        return np.full(p, p * p, dtype=np.int64)
    c = cube_counts(p)
    cubes = np.flatnonzero(c[1:]) + 1
    g = next(v for v in range(2, p) if c[v] == 0)  # a non-cube
    reps = np.array([0, 1, g, g * g % p])
    label = np.zeros(p, dtype=np.intp)
    for k, r in enumerate(reps[1:], start=1):
        label[cubes * r % p] = k
    # c is 1 at 0 and 3 on H, so (f * c)[r] = f[r] + 3 sum_{h in H} f[r - h]
    shifted = (reps[:, None] - cubes) % p

    def times_c(f: np.ndarray) -> np.ndarray:
        return (f[reps] + 3 * f[shifted].sum(axis=1))[label]

    return times_c(times_c(c))


def _prime_power_counts(p: int, l: int) -> np.ndarray:
    """N_a(p^l) for all a mod p^l, by Hensel lifting from a base level.

    A solution with a coordinate prime to p lifts to p^2 solutions per level
    once the level exceeds 2 v_p(3) (so from level 1 for p != 3 and from
    level 3 for p = 3).  The remaining solutions are y = p z with
    F0(y) = p^3 F0(z): at levels l <= 3 every such y counts at a = 0, above
    that they are p^6 N_{a/p^3}(p^(l-3)) at a = 0 mod p^3.
    """
    if p == 3 and l <= 3:
        q = p**l
        c = cube_counts(q)
        lin = np.convolve(np.convolve(c, c), c)
        return np.pad(lin, (0, 2)).reshape(3, q).sum(axis=0)
    if l == 1:
        return _level_one_counts(p)
    b = 3 if p == 3 else 1
    base = _prime_power_counts(p, b)
    base[0] -= p ** (3 * (b - 1))  # drop the solutions y = 0 mod p
    out = np.tile(base, p ** (l - b)) * p ** (2 * (l - b))
    if l <= 3:
        out[0] += p ** (3 * (l - 1))
    else:
        out[:: p**3] += p**6 * _prime_power_counts(p, l - 3)
    return out


def _crt_product(n: int, parts, dtype=np.int64) -> np.ndarray:
    """The read-only product over a mod n of parts, each a vector mod a
    divisor of n read at a mod its length; on the prime-power vectors of
    a multiplicative function this is its CRT assembly."""
    out = np.ones(n, dtype=dtype)
    for part in parts:
        out *= np.tile(part, n // len(part))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def point_count_vector(m: int) -> np.ndarray:
    """N_a(m) for all a mod m, as one array; sums to m^3.

    The CRT product of the prime-power vectors of _prime_power_counts;
    _cyclic_conv(_cyclic_conv(c, c, m), c, m) on c = cube_counts(m) is the
    independent oracle.
    """
    m = _check_modulus(m)
    return _crt_product(m, [_prime_power_counts(p, e)
                            for p, e in factor(m).factors])


def _cube_sum_histogram(n: int) -> np.ndarray:
    """Oracle histogram of F0 over (Z/n)^3 by enumeration: count x^3 + y^3
    over the n^2 pairs, then add that count at a - z^3 over every z;
    O(n^2) time and memory."""
    y = np.arange(n, dtype=np.int64)
    cubes = (y * y % n) * y % n
    pairs = np.bincount(((cubes[:, None] + cubes[None, :]) % n).ravel(),
                        minlength=n)
    return pairs[(y[:, None] - cubes[None, :]) % n].sum(axis=1)


def point_counts_bruteforce(m: int) -> np.ndarray:
    """Independent O(m^2) enumeration of N_a(m); only for small m."""
    _check_int("m", m, 1, 256)
    return _cube_sum_histogram(m)


# ---------------------------------------------------------------------------
# unit-twisted complete sums


def configure_cache(directory: str | None) -> None:
    """Point the S1 disk store at a directory (None: off); clear the T lrus."""
    cache.configure(directory)
    t_prime_power.cache_clear()
    t_full.cache_clear()


@lru_cache(maxsize=512)
def t_prime_power(p: int, l: int) -> np.ndarray:
    """Vector of T_a(p^l) over a mod p^l; int64 whenever it fits."""
    _check_prime(p)
    # the largest l with p^l <= MAX_MODULUS = 2^21 - 1, so below 21
    hi = max(k for k in range(1, MAX_MODULUS.bit_length())
             if p**k <= MAX_MODULUS)
    _check_int("l", l, 1, hi)
    # T = p^l D with D = N_a(p^l) - p^2 N_a(p^(l-1)) and N_a(p^0) = 1; both
    # terms of D lie in [0, m^3] and m^3 < 2^63, so D is exact in int64
    n_l = point_count_vector(p**l)
    n_prev = point_count_vector(p ** (l - 1)) if l > 1 else np.ones(1, np.int64)
    d = n_l - p * p * np.tile(n_prev, p)
    if p**l * max(-int(d.min()), int(d.max())) <= INT64_MAX:
        arr = p**l * d
    else:
        arr = p**l * d.astype(object)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=512)
def t_full(n: int) -> np.ndarray:
    """Vector of T_a(n) over a mod n, assembled multiplicatively."""
    n = _check_modulus(n)
    fac = factor(n).factors
    # |T_a(q)| <= q^4 per factor, so the product bound decides the dtype
    big = math.prod(int(p) ** (4 * e) for p, e in fac) > INT64_MAX
    return _crt_product(n, [t_prime_power(p, e) for p, e in fac],
                        object if big else np.int64)


def t_single(a: int, n: int):
    """T_a(n) for one residue; int."""
    _check_int("a", a, None)
    return int(t_full(n)[a % n])


def t_direct(n: int) -> np.ndarray:
    """Definitional floating evaluation of T_a(n) for all a mod n.

    Enumerates the value histogram of F0 over (Z/n)^3 directly (no
    convolution) and sums unit characters in complex doubles.  Intended as an
    independent oracle for small n; error grows like n^3 * eps.
    """
    _check_int("n", n, 1, 128)
    hist = _cube_sum_histogram(n).astype(float)
    units = np.array([u for u in range(n) if math.gcd(u, n) == 1]) if n > 1 else np.array([0])
    root = np.exp(2j * np.pi / n)
    # S_u = sum_t hist[t] e_n(u t);  T_a = Re sum_u S_u e_n(-u a)
    su = (root ** np.outer(units, np.arange(n))) @ hist
    return (su @ root ** (-np.outer(units, np.arange(n)))).real


# ---------------------------------------------------------------------------
# the twisted double sums S+_0(n; d)


def _s_plus_prime_power(p: int, e: int, f: int) -> int:
    """S+_0(p^f; p^e) for 0 <= e <= f, f >= 1."""
    m = p**f
    d = p**e
    if e == f:
        n0 = int(point_count_vector(m)[0])
        return m * n0 * n0
    t = t_prime_power(p, f)
    b = np.arange(0, m, d)
    total = sum(int(x) * int(x) for x in t[b])
    q, r = divmod(total, m)
    if r:
        raise CheckFailed(f"sum of T_b^2 over b in {d}Z/{m}Z is not divisible by {m}")
    return q


def s_plus_zero(n: int, d: int) -> int:
    """S+_0(n; d): the auxiliary double sum

        sum_{m : lcm(m,d) = n} sum_{u in (Z/m)*}
            sum_{x in (Z/n)^6 : d | F0(y), d | F0(z)} e_m(u F(x)),

    with x = (y, z) and F(x) = F0(y) - F0(z).  Vanishes unless d | n;
    multiplicative across coprime (n, d) blocks; always an integer.
    """
    _check_int("n", n)
    _check_int("d", d)
    if n % d != 0:
        return 0
    fac = factor(n).factors
    for p, f in fac:  # every prime power is checked before any is computed
        _check_modulus(p**f)
    return math.prod(_s_plus_prime_power(p, v_p(d, p), f) for p, f in fac)


def s_plus_zero_bruteforce(n: int, d: int) -> tuple[int, float]:
    """Definitional evaluation of S+_0(n; d) in complex doubles.

    Enumerates y over (Z/n)^3 for the value histogram, then the outer sum
    over m with lcm(m, d) = n and units u.  Returns (rounded value, rounding
    residual).  Guarded to n * d <= 200.
    """
    _check_int("n", n)
    _check_int("d", d)
    if n % d != 0:
        return 0, 0.0
    if n * d > 200:
        raise ValueError("brute force limited to n * d <= 200")
    hist = _cube_sum_histogram(n).astype(float)
    keep = np.arange(n) % d == 0
    total = 0.0
    for m in divisors(n):
        if math.lcm(m, d) != n:
            continue
        hm = np.zeros(m)
        np.add.at(hm, np.arange(n)[keep] % m, hist[keep])
        units = [u for u in range(m) if math.gcd(u, m) == 1] if m > 1 else [0]
        root = np.exp(2j * np.pi / m)
        for u in units:
            au = (root ** (u * np.arange(m))) @ hm
            total += abs(au) ** 2 / 1.0
    val = round(total)
    return val, abs(total - val)


# ---------------------------------------------------------------------------
# local densities


@dataclass(frozen=True)
class LocalDensity:
    """sigma_{p,a} = lim_l p^{-2l} N_a(p^l), with the certified level used."""

    p: int
    a: int
    value: Fraction
    level: int
    point_count: int


def sigma_p_a(p: int, a: int) -> LocalDensity:
    """Local density of F0 = a at a prime p for a != 0.

    The level value p^{-2l} N_a(p^l) is constant from l = v_p(3a) + 1 on:
    past that level every solution lifts (the higher twisted sums vanish), so
    that level certifies the limit.
    """
    _check_int("a", a, None)
    if a == 0:
        raise ValueError("sigma_p_a needs a != 0")
    _check_prime(p)
    level = v_p(3 * a, p) + 1
    if p**level > MAX_MODULUS:
        raise ValueError(f"level {level} at p={p} puts p^{level} above {MAX_MODULUS}")
    count = int(point_count_vector(p**level)[a % p**level])
    return LocalDensity(p, a, Fraction(count, p ** (2 * level)), level, count)


def g_density(n: int) -> Fraction:
    """g(n) = n^{-3} N_0(n); multiplicative."""
    _check_int("n", n)
    out = Fraction(1)
    for p, e in factor(n).factors:
        q = p**e
        out *= Fraction(int(point_count_vector(q)[0]), q**3)
    return out


def _sigma_p_of_d(p: int, e: int) -> float:
    """Local 6-variable density sum_j p^{-6j} S+_0(p^j; p^e).

    Truncated at the modulus cap or after two consecutive terms below 1e-12
    of the running total (single zero terms are common: T_a(3) = 0 kills
    j = 1 at p = 3 while j = 2 contributes 0.74).  A geometric truncation
    tail of order the last term remains.
    """
    total = 0.0
    j = e
    small_run = 0
    while True:
        q = p**j
        if q > LOCAL_MODULUS_CAP:
            break
        term = (_s_plus_prime_power(p, e, j) if j else 1) / q**6
        total += term
        if j > e and abs(term) < 1e-12 * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
        j += 1
    return total


def singular_series_euler(d: int) -> float:
    """Level-d singular series S(d) = sum_{d | n} n^{-6} S+_0(n; d) as its
    Euler product over p <= p_max = 100.

    ValueError names a d that the product cannot represent: one with a prime
    factor above p_max, which no factor sees, or with a prime power above
    LOCAL_MODULUS_CAP, whose factor _sigma_p_of_d would cut to 0.
    """
    p_max = 100
    _check_int("d", d)
    exps = {p: v_p(d, p) for p in primes_below(p_max + 1)}
    if math.prod(p**e for p, e in exps.items()) != d:
        raise ValueError(f"d={d} has a prime factor above {p_max}, "
                         "past the Euler product")
    for p, e in exps.items():
        if p**e > LOCAL_MODULUS_CAP:
            raise ValueError(f"d={d} has the prime power {p}^{e} > "
                             f"LOCAL_MODULUS_CAP = {LOCAL_MODULUS_CAP}")
    return math.prod(_sigma_p_of_d(p, e) for p, e in exps.items())
