"""Rotation-group primitives: hat/vee, exponential, logarithm, polar projection.

All functions accept batched input (leading axes are broadcast), so the same
code path serves single vectors and whole space-time fields.  The Lie algebra
is identified with R^3 throughout: the bracket is the cross product, the
adjoint action of a rotation is plain matrix action, and the coadjoint action
is ``ad*_x m = -x cross m`` under the Euclidean pairing.
"""

import numpy as np

from .errors import NearAnglePiError, NotAntisymmetricError, TooFarFromGroupError

# Below this rotation angle the Rodrigues coefficients switch to their
# fourth-order Taylor expansions (keeps relative error < 1e-12 in doubles).
SMALL_ANGLE = 1e-4

# Largest admissible rotation angle for the logarithm.
MAX_LOG_ANGLE = np.pi - 1e-6

# Frobenius trust radius of the polar projection.
POLAR_TRUST_RADIUS = 0.1

# Newton-Schulz polar iteration: step cap, and the orthogonality defect
# below which one more step reaches roundoff.
POLAR_MAX_STEPS = 8
POLAR_SETTLED = 1e-8

IDENTITY = np.eye(3)


def cross(a, b):
    """Componentwise cross product of (..., 3) arrays.

    Same contract as ``np.cross`` restricted to 3-vectors, but without its
    axis-juggling overhead; the evaluators call this in tight loops.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def hat(v):
    """Map a 3-vector to the antisymmetric matrix with ``hat(v) @ w = v x w``."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def vee_skew(M):
    """Read the antisymmetric part of ``M`` as a 3-vector, without checking."""
    M = np.asarray(M, dtype=float)
    return 0.5 * np.stack(
        [M[..., 2, 1] - M[..., 1, 2],
         M[..., 0, 2] - M[..., 2, 0],
         M[..., 1, 0] - M[..., 0, 1]],
        axis=-1,
    )


def vee(M, tol=1e-6):
    """Inverse of :func:`hat`.

    Raises :class:`NotAntisymmetricError` when the symmetry defect
    ``||M + M^T||_F`` exceeds ``tol``.
    """
    M = np.asarray(M, dtype=float)
    defect = np.sqrt(np.sum((M + np.swapaxes(M, -1, -2)) ** 2, axis=(-2, -1)))
    worst = float(np.max(defect))
    if worst > tol:
        raise NotAntisymmetricError(
            f"antisymmetry defect {worst:.3e} exceeds tolerance {tol:.1e}")
    return vee_skew(M)


def exp_so3(v):
    """Rotation by angle ``||v||`` about axis ``v/||v||`` (Rodrigues formula)."""
    v = np.asarray(v, dtype=float)
    theta2 = np.sum(v * v, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < SMALL_ANGLE
    # Guard the divisions; the small-angle branch overwrites those entries.
    safe2 = np.where(small, 1.0, theta2)
    a = np.where(small,
                 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0,
                 np.sin(theta) / np.sqrt(safe2))
    b = np.where(small,
                 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
                 (1.0 - np.cos(theta)) / safe2)
    K = hat(v)
    K2 = K @ K
    return (IDENTITY
            + a[..., None, None] * K
            + b[..., None, None] * K2)


def log_so3(R):
    """Principal logarithm of a rotation, as a 3-vector of norm < pi.

    Raises :class:`NearAnglePiError` when the rotation angle exceeds
    ``pi - 1e-6`` (axis no longer determined by the antisymmetric part).
    """
    R = np.asarray(R, dtype=float)
    w = vee_skew(R)                      # sin(theta) * axis
    s = np.linalg.norm(w, axis=-1)       # sin(theta), >= 0 for theta in [0, pi]
    trace = np.trace(R, axis1=-2, axis2=-1)
    c = 0.5 * (trace - 1.0)              # cos(theta)
    theta = np.arctan2(s, c)
    worst = float(np.max(theta))
    if worst > MAX_LOG_ANGLE:
        raise NearAnglePiError(
            f"rotation angle {worst:.8f} within 1e-6 of pi; logarithm ill-posed")
    small = theta < SMALL_ANGLE
    theta2 = theta * theta
    # theta/sin(theta), series below the switch point.
    scale = np.where(small,
                     1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0,
                     theta / np.where(small, 1.0, s))
    return scale[..., None] * w


def rotation_angle(R):
    """Rotation angle in [0, pi] (robust near both endpoints)."""
    R = np.asarray(R, dtype=float)
    s = np.linalg.norm(vee_skew(R), axis=-1)
    c = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(s, c)


def reorthonormalize(M):
    """Nearest rotation matrix in the Frobenius sense (polar factor).

    Newton-Schulz iteration ``R <- R (3 Id - R^T R) / 2``: it keeps the
    singular vectors and drives every singular value in (0, sqrt 3) to 1
    quadratically, so it needs one step for a product of rotations and at
    most five within the trust radius (singular values in [0.9, 1.1]).
    Raises :class:`TooFarFromGroupError` when the input is more than
    ``POLAR_TRUST_RADIUS`` away from SO(3): when the iteration does not
    settle, when the polar factor is a reflection (``det M <= 0``), or when
    it lies too far from ``M``.
    """
    M = np.asarray(M, dtype=float)
    R = M
    for _ in range(POLAR_MAX_STEPS):
        # a contiguous transpose makes the batched product ~2x faster
        gram = np.ascontiguousarray(np.swapaxes(R, -1, -2)) @ R
        defect = float(np.abs(gram - IDENTITY).max())
        R = R @ (1.5 * IDENTITY - 0.5 * gram)
        # the next defect is about 3/4 of this one squared: roundoff
        if defect <= POLAR_SETTLED:
            break
    else:
        raise TooFarFromGroupError(
            f"polar iteration did not settle (orthogonality defect "
            f"{defect:.3e}); input is beyond trust radius {POLAR_TRUST_RADIUS}")
    # R is orthogonal now, with the sign of det M unless M is out of reach
    if not np.all(np.linalg.det(R) > 0.0):
        raise TooFarFromGroupError(
            "det <= 0: the nearest orthogonal matrix is a reflection, beyond "
            f"trust radius {POLAR_TRUST_RADIUS} of SO(3)")
    worst = float(np.sqrt(((M - R) ** 2).sum(axis=(-2, -1)).max()))
    if not worst <= POLAR_TRUST_RADIUS:
        raise TooFarFromGroupError(
            f"distance to SO(3) is {worst:.3e}, beyond trust radius "
            f"{POLAR_TRUST_RADIUS}")
    return R


def random_rotation(rng):
    """Uniform-ish random rotation (exp of a random vector with norm < pi)."""
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.eye(3)
    angle = rng.uniform(0.0, np.pi - 0.1)
    return exp_so3(v * (angle / n))
