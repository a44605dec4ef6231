"""Jacobi theta functions on rectangular and rhombic lattices.

Conventions follow Whittaker & Watson: with nome q = e^{i pi tau},

    theta1(z) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1)z)
    theta2(z) = 2 sum_{n>=0} q^{(n+1/2)^2} cos((2n+1)z)
    theta3(z) = 1 + 2 sum_{n>=1} q^{n^2} cos(2nz)
    theta4(z) = 1 + 2 sum_{n>=1} (-1)^n q^{n^2} cos(2nz)

All four are entire, pi-(anti)periodic and pi*tau-quasiperiodic.  Two lattice
families appear: rectangular tau = i*lambda (q real in (0,1)) and rhombic
tau = 1/2 + i*lambda (q purely imaginary).  Derivatives are obtained by
term-wise differentiation; the truncation order N is certified on the strip
|Im z| <= H = 2*pi*lambda by the tail bound 2|q|^{N^2} e^{2NH} (including the
polynomial factors introduced by differentiating twice).

The truncated series is evaluated as a Laurent polynomial in w = e^{2iz}:
each term is a sin or cos of (m0 + 2n) z, so theta_i^(k)(z) =
e^{i m0 z} P(w) +- e^{-i m0 z} P(1/w) with m0 = 1 for theta1, theta2 and 0
for theta3, theta4, and P is summed by Horner's rule.  A point costs one
complex exponential and O(N) multiply-adds, with O(size of z) temporaries.
The coefficients of P (the series coefficients times the factors of the
differentiation) are computed once per lattice, index and order and cached
on the lattice.  The terms are those of the sin/cos series above, so the
tail bound certifies this evaluation too.

On a tensor grid of points z = a_j + b_l with real a, the kind the curve
family evaluates on u x w surface grids, each term splits as
e^{i m a_j} e^{i m b_l}, so `theta_tensor` sums the series as one complex
matrix product (len(a) x 2N) @ (2N x len(b)) per array.  The left factor
depends on a and m0 alone, so one call evaluates arrays of any theta
indices and orders, with one left factor and one batched product per
m0: a single one for the theta1 and theta2 arrays of a rhombic lattice.
It sums the same terms with the same truncation, so the same bound
certifies it on |Im b| <= H.
`theta_grid` remains for points and lines and as the reference the
kernel is tested against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidLattice, StripExceeded

_MAX_TERMS = 400
_TOL = 1e-12
# entries of the left factor of theta_tensor per row block (128 KB)
_BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class Lattice:
    """Period lattice tau with certified theta-series truncation.

    kind is "rectangular" (tau = i*lam) or "rhombic" (tau = 1/2 + i*lam).
    The truncation is certified to the absolute bound _TOL on
    |Im z| <= strip_height.
    """

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in ("rectangular", "rhombic"):
            raise InvalidLattice(f"unknown lattice kind {self.kind!r}")
        if not self.lam > 0:
            raise InvalidLattice(f"lambda must be positive, got {self.lam}")

    @property
    def tau(self) -> complex:
        if self.kind == "rhombic":
            return 0.5 + 1j * self.lam
        return 1j * self.lam

    @property
    def nome(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.tau)

    @property
    def strip_height(self) -> float:
        # downstream arguments are (u +- i w +- omega)/2 with w < 2*pi*lam,
        # plus the full-width arguments omega - i w; cover both.
        return 2 * np.pi * self.lam

    @cached_property
    def truncation(self) -> int:
        absq = abs(self.nome)
        h = self.strip_height
        for n in range(1, _MAX_TERMS):
            # first omitted term of each series family, with the (2n+1)^2
            # factor from two term-wise differentiations
            half = 2 * absq ** ((n + 0.5) ** 2) * np.exp((2 * n + 1) * h) * (2 * n + 1) ** 2
            whole = 2 * absq ** (n * n) * np.exp(2 * n * h) * (2 * n) ** 2
            if half + whole < _TOL:
                return n
        raise InvalidLattice(
            f"cannot certify tol={_TOL} on strip {h} with {_MAX_TERMS} terms"
        )

    @cached_property
    def laurent(self) -> dict:
        """(i, order) -> theta_i^(order) as a Laurent series, filled on use."""
        return {}


def rhombic(lam: float) -> Lattice:
    return Lattice("rhombic", lam)


def rectangular(lam: float) -> Lattice:
    return Lattice("rectangular", lam)


def _laurent(i: int, order: int, lat: Lattice):
    """Coefficients a_n, offset m0 and parity s of theta_i^(order).

    Every term of the truncated series is c_n sin(m_n z) or c_n cos(m_n z)
    with m_n = m0 + 2n, and a k-th derivative multiplies e^{+-i m z} by
    (+-i m)^k, so

        theta_i^(k)(z) = e^{i m0 z} P(w) + s e^{-i m0 z} P(1/w),
        P(w) = sum_{n<N} a_n w^n,  w = e^{2iz},

    with a_n = c_n m_n^k i^k / 2 (cos terms) or c_n m_n^k i^(k-1) / 2
    (sin terms) and s = (-1)^k, negated for sin terms.
    """
    n = np.arange(lat.truncation)
    iptau = 1j * np.pi * lat.tau
    if i in (1, 2):
        m0 = 1
        c = 2 * np.exp(iptau * (n + 0.5) ** 2)
    else:
        m0 = 0
        c = 2 * np.exp(iptau * n ** 2)
        c[0] = 1.0
    if i in (1, 4):
        c = c * (-1.0) ** n
    odd = i == 1  # the sin series
    a = c * (m0 + 2 * n) ** order * (0.5 * 1j ** ((order - odd) % 4))
    return tuple(complex(x) for x in a), m0, (-1) ** (order + odd)


def _horner(coef, x):
    """sum_n coef[n] x^n by Horner's rule; in place when x is an array.
    coef needs two terms or more: a certified truncation has at least 5."""
    acc = x * coef[-1]
    for c in coef[-2:0:-1]:
        acc += c
        acc *= x
    acc += coef[0]
    return acc


def _check_strip(im: float, lat: Lattice):
    if im > lat.strip_height + 1e-12:
        raise StripExceeded(
            f"|Im z| = {im:.6g} exceeds certified strip {lat.strip_height:.6g}"
        )


def _series(i: int, order: int, lat: Lattice):
    """The cached `_laurent` series of theta_i^(order) on lat."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"theta index must be 1..4, got {i}")
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0..2, got {order}")
    key = (i, order)
    series = lat.laurent.get(key)
    if series is None:
        series = lat.laurent[key] = _laurent(i, order, lat)
    return series


def theta_grid(i: int, z, lat: Lattice, order: int = 0):
    """theta_i (or its z-derivative of given order) at a number or an array z.

    An array gives an array of the same shape, a number a numpy complex.
    """
    coef, m0, sign = _series(i, order, lat)
    scalar = isinstance(z, (int, float, complex)) or getattr(z, "ndim", None) == 0
    if scalar:
        z = complex(z)
        _check_strip(abs(z.imag), lat)
        u = cmath.exp(1j * z)
        w = u * u
        p, pinv = _horner(coef, w), _horner(coef, 1 / w)
    else:
        z = np.asarray(z, dtype=complex)
        _check_strip(np.max(np.abs(z.imag), initial=0.0), lat)
        u = np.exp(1j * z)
        w = np.empty((2,) + z.shape, dtype=complex)
        np.multiply(u, u, out=w[0])
        np.divide(1.0, w[0], out=w[1])
        p, pinv = _horner(coef, w)
    if m0:
        p *= u
        pinv /= u
    out = p + pinv if sign > 0 else p - pinv
    return np.complex128(out) if scalar else out


def _powers(e, n, m0, axis, size=None):
    """e^{m0} e^{2k} for k < n along a new axis of `size` (default n)
    entries at `axis`; the entries past n are left unset."""
    e2 = e * e
    out = np.empty(e.shape[:axis] + (size or n,) + e.shape[axis:],
                   dtype=complex)
    view = np.moveaxis(out, axis, 0)
    view[0] = e if m0 else 1.0
    for k in range(1, n):
        np.multiply(view[k - 1], e2, out=view[k])
    return out


def _runs(keys):
    """(key, slice) of each run of equal consecutive entries of keys."""
    starts = [r for r in range(len(keys)) if r == 0 or keys[r] != keys[r - 1]]
    return [(keys[r], slice(r, e))
            for r, e in zip(starts, starts[1:] + [len(keys)])]


def theta_tensor(rows, a, b, lat: Lattice):
    """theta_i^(k)(a_j + b[r, l]) for the pair (i, k) = rows[r] of every
    b-row, as a (len(rows), len(a), nb) array.

    a is a real 1-D array, b a (len(rows), nb) complex array (or 1-D
    arrays of one length) and rows holds one (theta index, derivative
    order) pair per row of b; each array out[r] of the result is
    contiguous.  With m_n = m0 + 2n the series of `_laurent` is the
    matrix product

        [e^{i m_n a_j}, e^{-i m_n a_j}] @ [[a_n e^{i m_n b_l}], [s a_n e^{-i m_n b_l}]]

    (a_n, m0 and s of theta_i^(k)), whose left factor depends on a and m0
    alone (m0 = 1 for theta1 and theta2, 0 for theta3 and theta4): each
    run of consecutive rows with one m0 is one batched product, and the
    runs of one m0 share the left factor.  Both factors are built from one
    complex exponential per value of a or b and its powers; the left one
    in blocks of at most _BLOCK_ENTRIES entries, so no temporary grows
    with len(a) x N.  The right factor is built for each run of rows of
    one theta index as a call on that run alone builds it (numpy's
    strided and contiguous loops may round a complex product differently),
    so each array is bit for bit the one that call returns.  The terms
    are those of `theta_grid`, so its tail bound certifies the product on
    |Im b| <= H, where every e^{+-i m_n b} is finite: the truncation loop
    evaluated e^{(2N+1)H}.
    """
    series = [_series(i, k, lat) for i, k in rows]
    nr = len(series)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=complex).reshape(nr, -1)
    # allocated before the temporaries it outlives
    out = np.empty((nr, len(a), b.shape[1]), dtype=complex)
    _check_strip(np.max(np.abs(b.imag), initial=0.0), lat)
    n = len(series[0][0])
    coef = np.array([c for c, _, _ in series])[:, :, None]     # (nr, n, 1)
    sign = np.array([s for _, _, s in series])[:, None, None]
    m0s = [m0 for _, m0, _ in series]
    eb = np.exp(1j * b)
    right = np.empty((nr, 2 * n, b.shape[1]), dtype=complex)
    for _, rs in _runs([i for i, _ in rows]):
        p = _powers(eb[rs], n, m0s[rs.start], axis=1)          # e^{i m_n b}
        np.multiply(coef[rs], p, out=right[rs, :n])
        np.divide(sign[rs] * coef[rs], p, out=right[rs, n:])
    step = max(1, _BLOCK_ENTRIES // (2 * n))
    for lo in range(0, len(a), step):
        ea = np.exp(1j * a[lo:lo + step])
        for m0 in set(m0s):
            left = _powers(ea, n, m0, 0, 2 * n)
            np.conjugate(left[:n], out=left[n:])               # e^{-i m_n a}
            for m, rs in _runs(m0s):
                if m == m0:
                    np.matmul(left.T, right[rs], out=out[rs, lo:lo + step])
    return out


# quasi-period multipliers for z -> z + pi*tau: theta_i(z + pi*tau) = m_i(z) theta_i(z)
def _quasi_factor(i: int, z: complex, lat: Lattice) -> complex:
    base = cmath.exp(-2j * z) / lat.nome
    sign = -1.0 if i in (1, 4) else 1.0
    return sign * base


def quasiperiodicity_residual(i: int, z: complex, lat: Lattice) -> float:
    """|theta_i(z + pi*tau) - m_i(z) theta_i(z)| for the known multiplier m_i."""
    shifted = theta_grid(i, z + np.pi * lat.tau, lat)
    return float(abs(shifted - _quasi_factor(i, z, lat) * theta_grid(i, z, lat)))


def rhombic_conjugation_residual(i: int, z: complex, lat: Lattice) -> float:
    """|conj(theta_i(z)) - e^{-i pi/4} theta_i(conj z)| on a rhombic lattice (i = 1, 2)."""
    if lat.kind != "rhombic":
        raise InvalidLattice("conjugation symmetry requires a rhombic lattice")
    if i not in (1, 2):
        raise ValueError("conjugation symmetry holds for theta1, theta2 only")
    lhs = np.conj(theta_grid(i, z, lat))
    rhs = cmath.exp(-1j * np.pi / 4) * theta_grid(i, np.conj(z), lat)
    return float(abs(lhs - rhs))


def addition_formula_residual(x: complex, y: complex, lat: Lattice) -> float:
    """Residual of the two quadratic theta addition formulas at (x, y)."""
    t1 = lambda z: theta_grid(1, z, lat)
    t2 = lambda z: theta_grid(2, z, lat)
    t20 = t2(0.0)
    r1 = t20 ** 2 * t1(x + y) * t1(x - y) - (t1(x) ** 2 * t2(y) ** 2 - t2(x) ** 2 * t1(y) ** 2)
    r2 = t20 ** 2 * t2(x + y) * t2(x - y) - (t2(x) ** 2 * t2(y) ** 2 - t1(x) ** 2 * t1(y) ** 2)
    return float(max(abs(r1), abs(r2)))
