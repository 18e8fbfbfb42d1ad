"""A proven rounding margin for squared distances taken through dot products.

The exact squared distance of p and v is the row sum of (p - v) ** 2. The
cheap one, approx = |p|^2 + |v|^2 - 2 p.v, takes its dot products from one
matrix product. With gamma_n = n u / (1 - n u) for the unit roundoff u
(Higham, Accuracy and Stability of Numerical Algorithms, 3.1), a dot product
of length d is off by at most gamma_d times the sum of its |terms|, whatever
the summation order, thread split or fused multiply-add. So approx is within
2 gamma_d + 3u (to first order), and the exact float within 2 gamma_{d+2},
of the real distance, in units of |p|^2 + |v|^2, and

    |approx - exact| <= m = 8 gamma_{d+3} (|p|^2 + |v|^2) + (d + 3) 2^-1071,

where the factor 8 leaves room for rounding m and approx +- m, and the last
term covers products that underflow. So approx - m <= exact <= approx + m in
floats. The proof needs every intermediate finite: the exact distance is at
most 2 (|p|^2 + |v|^2), so it holds while |p|^2 + |v|^2 <= 2 SAFE_NORM.
"""

from __future__ import annotations

import numpy as np

# |p|^2 + |v|^2 above twice this may hide an intermediate that overflowed
SAFE_NORM = 2.0**1020
_UNIT_ROUNDOFF = 2.0**-53


def rounding_margin(norms: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """m for each entry of norms = |p|^2 + |v|^2 of vectors of length d;
    out may be norms itself."""
    gamma = (d + 3) * _UNIT_ROUNDOFF / (1 - (d + 3) * _UNIT_ROUNDOFF)
    margin = np.multiply(norms, 8.0 * gamma, out=out)
    margin += (d + 3) * 2.0**-1071
    return margin
