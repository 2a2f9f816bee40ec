"""Reference helpers the unit tests check ym4's kernels against.

They are plain numpy restatements of textbook definitions, kept beside the
tests because no part of ym4 needs them.
"""

import numpy as np

from ym4.gaugefield import GaugeTransformField


def inner_arr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise inner product of coefficient arrays (algebra axis last)."""
    return np.einsum("...a,...a->...", x, y)


def quat_log_coeffs(q: np.ndarray) -> np.ndarray:
    """Inverse of quat_exp: algebra coefficients of a unit quaternion."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., :1], -1.0, 1.0)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    theta = 2.0 * np.arctan2(vn, w)
    scale = np.where(vn > 1e-30, theta / np.where(vn > 1e-30, vn, 1.0), 2.0)
    return v * scale


def radius_about(grid, center) -> np.ndarray:
    """Distance of each site of grid from the point center."""
    r2 = np.zeros(grid.shape)
    for j in range(1, 5):
        r2 += (grid.coordinate_field(j) - center[j - 1]) ** 2
    return np.sqrt(r2)


def identity_transform(grid, spec) -> GaugeTransformField:
    """The gauge transformation equal to the group identity at every site."""
    q = np.zeros(grid.shape + (4,))
    q[..., 0] = 1.0
    return GaugeTransformField(grid, spec, q)


def laplacian(grid, f: np.ndarray) -> np.ndarray:
    """Sum_j partial_j partial_j f with the grid's derivative, summed in
    order j = 1..4 onto zeros."""
    out = np.zeros_like(f)
    for j in range(1, 5):
        out += grid.partial(grid.partial(f, j), j)
    return out
