"""Scalar splitmix64 chain: the reference for the split chain ``_rng.path_keys``
-> ``step_hash`` -> ``stream_uniforms`` that ``montecarlo`` draws through.

Plain Python integers modulo 2^64, one (seed, path, step, stream) at a time,
with the float conversion and its clamp below 1.0 written out.
"""

_M64 = 2**64 - 1


def mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def uniform(seed: int, path: int, step: int, stream: int) -> float:
    h = mix(mix(mix(mix(seed & _M64) ^ path) ^ (step & _M64)) ^ (stream & _M64))
    return min((h >> 11) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53)
