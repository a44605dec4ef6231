"""Quaternion algebra: R^3 as imaginary quaternions, C embedded in span{j,k}.

Hamilton convention: i*j = k, j*k = i, k*i = j, i^2 = j^2 = k^2 = -1.
A complex number z = a + b*i acts on the j,k-plane via z*j = a*j + b*k,
and z*j = j*conj(z).

Every function operates on trailing axes: quaternions are (..., 4) arrays
in (w, x, y, z) order, vectors (..., 3) in (i, j, k) components.  They
broadcast, which is what the surface assembly uses; a single quaternion is
a (4,) array.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroQuaternion


def cross(a, b):
    """a x b on vector arrays (..., 3), broadcasting.

    The same operations as np.cross, written out: np.cross spends most of
    its time on axis bookkeeping for the small arrays of the integrators.
    """
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1],
                    axis=-1)


def qmul(a, b):
    """Hamilton product of quaternion arrays (..., 4), broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, av = a[..., 0], a[..., 1:]
    bw, bv = b[..., 0], b[..., 1:]
    w = aw * bw - (av[..., 0] * bv[..., 0] + av[..., 1] * bv[..., 1]
                   + av[..., 2] * bv[..., 2])
    v = (aw[..., None] * bv + bw[..., None] * av + cross(av, bv))
    return np.concatenate([w[..., None], v], axis=-1)


def qconj(a):
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1
    return out


def qnorm2(a):
    a = np.asarray(a, dtype=float)
    return np.sum(a * a, axis=-1)


def qinv(a):
    n2 = qnorm2(a)
    if np.any(n2 == 0):
        raise ZeroQuaternion("cannot invert the zero quaternion")
    return qconj(a) / n2[..., None]


def qsandwich(q, v):
    """q^{-1} X q on vector arrays X (..., 3); broadcasts q against v."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    out = qmul(qmul(qinv(q), x), q)
    return out[..., 1:]


def qrotation(q):
    """3x3 matrices (..., 3, 3) of X -> q^{-1} X q for quaternion arrays (..., 4).

    qrotation(q) @ X equals qsandwich(q, X); column c is the image of the
    c-th unit vector (i, j, k).  Any nonzero multiple of q gives the same matrix.
    """
    q = np.asarray(q, dtype=float)
    n2 = qnorm2(q)
    if np.any(n2 == 0):
        raise ZeroQuaternion("cannot invert the zero quaternion")
    w, x, y, z = np.moveaxis(q, -1, 0)
    rows = ((w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
            (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
            (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z))
    m = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return m / n2[..., None, None]
