"""Quadrature rules used by the assembly kernels.

Both rules are exact for polynomials of degree 2, which covers every
product of linear basis functions appearing in the stabilized forms
except the convective nonlinearity.
"""

import numpy as np

# 4-point degree-2 rule on the tetrahedron, barycentric coordinates.
_TET_A = 0.5854101966249685  # (5 + 3*sqrt(5)) / 20
_TET_B = 0.1381966011250105  # (5 - sqrt(5)) / 20

TET4_BARY = np.array(
    [
        [_TET_A, _TET_B, _TET_B, _TET_B],
        [_TET_B, _TET_A, _TET_B, _TET_B],
        [_TET_B, _TET_B, _TET_A, _TET_B],
        [_TET_B, _TET_B, _TET_B, _TET_A],
    ]
)
# Weights sum to 1; multiply by the element volume.
TET4_WEIGHTS = np.full(4, 0.25)

# 3-point degree-2 rule on the triangle, barycentric coordinates.
TRI3_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
