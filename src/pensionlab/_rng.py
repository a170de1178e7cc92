"""Counter-based random streams for reproducible simulation.

Every variate is a pure function of (seed, path, step, stream), so results
are identical regardless of evaluation order, vectorisation or thread count.
The generator is a chain of splitmix64 finalisers absorbing each key in
turn, split into the pieces a simulation reuses:

* ``path_keys(seed, lo, hi)`` = mix(mix(seed) ^ path) of the paths
  lo .. hi-1, formed by each block of paths where it is drawn, so a run
  holds no key per path;
* ``step_hash(keys, step)`` = mix(keys ^ step), once per step and shared by
  every stream of that step;
* ``stream_uniforms(h, stream)`` = mix(h ^ stream) mapped to a float.

Each piece finalises in place the fresh array that its xor makes, and
``stream_uniforms`` also shifts it in place to its top 53 bits.

A uniform is the top 53 bits of the hash plus half a unit, (k + 1/2) 2^-53,
clamped to 1 - 2^-53 so that the largest k (which rounds to 1.0) stays
inside (0, 1).  Normals come from the rational-polynomial inverse normal
CDF (Wichura's PPND16), accurate to ~1e-15.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["path_keys", "step_hash", "stream_uniforms", "inverse_normal_cdf"]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser (full avalanche) on uint64 values, in place in ``x``."""
    x += _GOLDEN
    t = np.empty_like(x)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, _U64(shift), out=t)
        x ^= t
        x *= mult
    np.right_shift(x, _U64(31), out=t)
    x ^= t
    return x


def _key(value: int) -> np.uint64:
    """An integer key reduced modulo 2^64."""
    return _U64(value & 0xFFFFFFFFFFFFFFFF)


@functools.lru_cache(maxsize=1)
def _seed_key(seed: int) -> np.uint64:
    """mix(seed), formed once for all the blocks of a run."""
    return _mix(np.array([_key(seed)]))[0]


def path_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Keys mix(mix(seed) ^ path) of paths lo .. hi-1 of one run."""
    keys = np.arange(lo, hi, dtype=np.uint64)
    keys ^= _seed_key(seed)
    return _mix(keys)


def step_hash(keys: np.ndarray, step: int) -> np.ndarray:
    """mix(keys ^ step): the hash every stream of one step starts from."""
    return _mix(keys ^ _key(step))


def _unit_interval(h: np.ndarray) -> np.ndarray:
    """(top 53 bits of h + 1/2) 2^-53, clamped to at most 1 - 2^-53; shifts
    the fresh hash ``h`` in place."""
    h >>= _U64(11)
    u = h.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return np.minimum(u, _BELOW_ONE, out=u)


def stream_uniforms(h: np.ndarray, stream: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1) of one stream from a step hash."""
    return _unit_interval(_mix(h ^ _key(stream)))


# PPND16 (applied-statistics algorithm AS 241): rational approximations on a
# central interval and two tail regimes.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, x):
    """Horner evaluation of sum(coeffs[i] x^i), in place on one new array."""
    acc = np.multiply(x, coeffs[-1])
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def inverse_normal_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1) of a 1-D float64 ``p``.

    The central polynomial (the branch for |p - 0.5| <= 0.425) is evaluated
    on every element with at most three arrays of p's size alive.  Only the
    tail elements, about 15% of uniform draws, are gathered: each gets
    r = sqrt(-log(min(p, 1 - p))) and the near tail polynomial, the far one
    where r > 5, and is written back over the central value.
    """
    q = p - 0.5
    tail = np.flatnonzero(np.abs(q) > 0.425)
    lower = q[tail] < 0.0
    r = np.multiply(q, q)
    np.subtract(0.180625, r, out=r)
    out = _poly(_A, r)
    out *= q
    del q
    out /= _poly(_B, r)

    pt = p[tail]
    r_t = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    r1 = r_t - 1.6
    x_tail = _poly(_C, r1)
    x_tail /= _poly(_D, r1)
    far = np.flatnonzero(r_t > 5.0)
    if far.size:  # p < e^-25: rare, and its two polynomials are ~30 numpy calls
        r2 = r_t[far] - 5.0
        x_tail[far] = _poly(_E, r2) / _poly(_F, r2)
    np.negative(x_tail, out=x_tail, where=lower)
    out[tail] = x_tail
    return out
