"""Quaternion algebra: R^3 as imaginary quaternions, C embedded in span{j,k}.

Hamilton convention: i*j = k, j*k = i, k*i = j, i^2 = j^2 = k^2 = -1.
A complex number z = a + b*i acts on the j,k-plane via z*j = a*j + b*k,
and z*j = j*conj(z).

Every function operates on trailing axes: quaternions are (..., 4) arrays
in (w, x, y, z) order, vectors (..., 3) in (i, j, k) components.  They
broadcast, which is what the surface assembly uses; a single quaternion is
a (4,) array.  Results are written component by component into one new
array, with the operations of the stacked expressions, in their order.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroQuaternion


def _components(*parts):
    """np.stack(parts, axis=-1) of arrays of one shape, into one array."""
    out = np.empty(np.shape(parts[0]) + (len(parts),))
    for k, part in enumerate(parts):
        out[..., k] = part
    return out


def cross(a, b):
    """a x b on vector arrays (..., 3), broadcasting.

    The same operations as np.cross, written out: np.cross spends most of
    its time on axis bookkeeping for the small arrays of the integrators.
    """
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return _components(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def qmul(a, b):
    """Hamilton product of quaternion arrays (..., 4), broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return _components(aw * bw - (ax * bx + ay * by + az * bz),
                       aw * bx + bw * ax + (ay * bz - az * by),
                       aw * by + bw * ay + (az * bx - ax * bz),
                       aw * bz + bw * az + (ax * by - ay * bx))


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
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rows = ((w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
            (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
            (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z))
    m = _components(*rows[0], *rows[1], *rows[2])
    return m.reshape(q.shape[:-1] + (3, 3)) / n2[..., None, None]
