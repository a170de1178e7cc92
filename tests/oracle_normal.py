"""All-branch inverse normal CDF: the reference for ``_rng.inverse_normal_cdf``.

Evaluates the central and both tail approximations of AS 241 on every
element and selects per element afterwards.  The branch-selective
``_rng.inverse_normal_cdf`` must match it bitwise; it is kept here only to
check that.
"""

import numpy as np

from pensionlab._rng import _A, _B, _C, _D, _E, _F, _poly


def inverse_normal_cdf_all_branches(p):
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    central = np.abs(q) <= 0.425

    r_c = 0.180625 - q * q
    x_central = q * _poly(_A, r_c) / _poly(_B, r_c)

    r_t = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    near = r_t <= 5.0
    r1 = r_t - 1.6
    r2 = r_t - 5.0
    x_tail = np.where(near, _poly(_C, r1) / _poly(_D, r1), _poly(_E, r2) / _poly(_F, r2))
    x_tail = np.where(q < 0.0, -x_tail, x_tail)

    return np.where(central, x_central, x_tail)
