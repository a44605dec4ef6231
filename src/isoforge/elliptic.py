"""The curve family's parameters and the Lame/Riccati coefficient functions.

A `Family` -- a lattice, omega and the mode that chose omega -- is what
every formula of the package takes.  Its constants (theta values, the Lame
constant C1, R(omega), Q3) are computed on first use and cached on it.

On a rhombic lattice tau = 1/2 + i*lambda the building blocks are

    U(u)  = -theta1'(0)/(2 theta2(w)) * theta1(u+w)/theta2(u) * e^{-u c},
    U1(u) = +theta1'(0)/(2 theta2(w)) * theta1(u-w)/theta2(u) * e^{+u c},

with w = omega and c = theta2'(omega)/theta2(omega).  The closed-curve theory
lives at the *critical* omega where theta2'(omega) = 0 (so c = 0); such an
omega exists in (0, pi/4) iff lambda < lambda0 ~ 0.354729892522, the unique
zero of theta2''(0 | 1/2 + i*lambda).

Although the thetas are complex on a rhombic lattice, the conjugation symmetry
conj(theta_{1,2}(z)) = e^{-i pi/4} theta_{1,2}(conj z) makes U, U1 and all the
derived constants below real for real u; we verify the imaginary parts and
return reals.

The Lame constant C1 = U''/U + 8 U U1 = U2(omega) has one closed form at
every omega, theta1'(0)^2/td(omega)^2 (e1 + e2 + e3), with the e (also the
roots of Q3) of the lattice's table, `Family.e`:

    rhombic:      th1(w)^2/th2(0)^2,  th4(w)^2/th3(0)^2,  th3(w)^2/th4(0)^2;
    rectangular:  th1(w)^2/th4(0)^2, -th3(w)^2/th2(0)^2, -th2(w)^2/th3(0)^2.

`c1_at_critical` evaluates it under the name of the critical-omega form it
generalizes, since benchmarks count its calls by that name.

The one-dimensional root finds of the package -- lambda0, the critical
omega, the inverse of the spherical map s(w) and the torus-closing
amplitude -- all go through `brentq` below, Brent's bracketed method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (InvalidLattice, NoBracket, NoCriticalOmega, PoleProximity,
                     SpecInvalid)
from .theta import Lattice, rhombic, theta_grid

_REAL_TOL = 1e-9
_BRENT_MAXITER = 100


def _real(z, what: str, error=ArithmeticError):
    """Re z, a float for a number; raises error for Im z above
    _REAL_TOL max(1, |z|).

    A number takes a scalar path with the same comparison (|z| by libm's
    hypot, as np.abs; a NaN |z| passes, as in np.maximum), value and
    message as a 0-d array.
    """
    if isinstance(z, (complex, float, int, np.number)):
        z = complex(z)
        try:
            size = abs(z)
        except OverflowError:  # np.abs gives inf
            size = np.inf
        if abs(z.imag) > _REAL_TOL * (1.0 if size <= 1.0 else size):
            raise error(f"{what} should be real, got {np.complex128(z)}")
        return z.real
    z = np.asarray(z, dtype=complex)
    bad = np.abs(z.imag) > _REAL_TOL * np.maximum(1.0, np.abs(z))
    if np.any(bad):
        raise error(f"{what} should be real, got {z[bad].flat[0]}")
    return float(z.real) if z.ndim == 0 else z.real


@dataclass(frozen=True)
class Family:
    """A lattice, omega and the mode that chose omega.

    mode is "critical" (omega is the zero of theta2' on a rhombic lattice,
    from `solve_critical_omega`; the curves close), "explicit" (omega given,
    in (0, pi/2)) or "limit" (omega = 0: the cylinder-tangent limit
    surface, on the rhombic lattice at lambda0 only, where theta2''(0) = 0
    to 1e-10).  A mode, omega or lattice outside these raises SpecInvalid.
    td is the companion theta: theta2 on rhombic, theta4 on rectangular
    lattices.
    """

    lattice: Lattice
    omega: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("critical", "explicit", "limit"):
            raise SpecInvalid(f"unknown family mode {self.mode!r}")
        if self.mode == "explicit" and not 0 < self.omega < np.pi / 2:
            raise SpecInvalid(f"explicit omega must lie in (0, pi/2), "
                              f"got {self.omega}")
        if self.mode == "limit" and self.omega != 0:
            raise SpecInvalid(f"the limit family has omega = 0, got {self.omega}")
        # the limit curves miss closure by about 21.5 |lambda - lambda0|;
        # the bound admits |lambda - lambda0| <= 1.3e-11, well within 1e-9
        lat = self.lattice
        if self.mode == "limit" and (lat.kind != "rhombic" or abs(
                theta2_logdd0(lat.lam)) > 1e-10):
            raise SpecInvalid(f"the limit family needs the rhombic lattice at"
                              f" lambda0 = {solve_lambda0():.12f}, got "
                              f"{lat.kind} lambda = {lat.lam}")

    @cached_property
    def den(self) -> int:
        """Index of td: 2 on rhombic, 4 on rectangular lattices."""
        return 2 if self.lattice.kind == "rhombic" else 4

    @cached_property
    def t1p0(self):
        """theta1'(0)."""
        return theta_grid(1, 0.0, self.lattice, 1)

    @cached_property
    def td(self):
        """td(omega)."""
        return theta_grid(self.den, self.omega, self.lattice)

    @cached_property
    def c(self) -> complex:
        """c = td'(omega)/td(omega), zero (to roundoff) at the critical omega."""
        return complex(theta_grid(self.den, self.omega, self.lattice, 1)
                       / self.td)

    @cached_property
    def e(self) -> tuple:
        """(e1, e2, e3), complex: the terms of C1 and the roots of Q3."""
        lat, w = self.lattice, self.omega
        # (theta at omega, theta at 0, sign) of each e, as in the module docstring
        table = (((1, 2, 1), (4, 3, 1), (3, 4, 1)) if lat.kind == "rhombic"
                 else ((1, 4, 1), (3, 2, -1), (2, 3, -1)))
        return tuple(sign * theta_grid(i, w, lat) ** 2
                     / theta_grid(j, 0.0, lat) ** 2 for i, j, sign in table)

    @cached_property
    def C1(self) -> float:
        """The Lame constant, by `c1_at_critical`."""
        return c1_at_critical(self)

    @cached_property
    def R(self) -> float:
        """R(omega) = 2 td(omega)^2 / (theta1'(0) theta1(2 omega)) = -1/U(omega)."""
        r = 2 * self.td ** 2 / (self.t1p0 * theta_grid(1, 2 * self.omega,
                                                          self.lattice))
        return _real(r, "R(omega)")

    @cached_property
    def q3(self) -> "CubicQ3":
        """Q3(s) = 2U1'(w)s^3 - U2(w)s^2 - 2U'(w)s - U(w)^2 with its roots
        `e`, by the closed forms of U(w), U'(w) and U1'(w) at c = 0 (the
        critical omega; U1(w) = 0 and U2(w) = C1).

        Off the critical omega they are not Q3's coefficients (they
        disagree with the roots), so |c| > 1e-12 raises SpecInvalid; at the
        critical omega |c| <= 2.1e-16 for lambda 0.28 to 0.354."""
        if abs(self.c) > 1e-12:
            raise SpecInvalid(f"Q3 needs the critical omega (c = 0), got "
                              f"|c| = {abs(self.c):.3g} at omega = {self.omega}")
        lat, w, t1p0, t2w2 = self.lattice, self.omega, self.t1p0, self.td ** 2
        U = _real(-0.5 * t1p0 * theta_grid(1, 2 * w, lat) / t2w2, "U(omega)")
        Up = _real(-0.5 * t1p0 * theta_grid(1, 2 * w, lat, 1) / t2w2,
                   "U'(omega)")
        U1p = _real(0.5 * t1p0 ** 2 / t2w2, "U1'(omega)")
        roots = tuple(sorted(map(complex, self.e),
                             key=lambda z: (z.real, z.imag)))
        return CubicQ3(c3=2 * U1p, c2=-self.C1, c1=-2 * Up, c0=-U ** 2,
                       roots=roots)

    @cached_property
    def residual(self) -> float:
        """|td'(omega)|: roundoff at the critical omega."""
        return float(abs(theta_grid(self.den, self.omega, self.lattice, 1)))


@dataclass(frozen=True)
class CoeffSample:
    U: float
    U1: float
    U2: float
    Uprime: float
    U1prime: float


@dataclass(frozen=True)
class CubicQ3:
    """Q3(s) = c3 s^3 + c2 s^2 + c1 s + c0 with its factorized-form roots.

    One root is real; the other two form a complex-conjugate pair (the
    factorized form pairs theta3/theta4 values that rhombic conjugation
    exchanges).
    """

    c3: float
    c2: float
    c1: float
    c0: float
    roots: tuple

    def __call__(self, s):
        return ((self.c3 * s + self.c2) * s + self.c1) * s + self.c0


@cache
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch:
    the eigenvalues of the Jacobi matrix and 2 v[0]^2 of its eigenvectors.
    Solved once per n in a process, on first use (not at import: the
    first eigh of a process adds about 0.9 MB of resident memory), and
    read-only, since every call shares them."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    w = 2 * v[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """A zero of f between a and b, where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4) in the form of SciPy's `brentq`, step for step:
    x_cur is the best point, x_blk the other end of the bracket, x_pre the
    previous iterate.  A step interpolates (secant while x_pre is x_blk,
    otherwise inverse quadratic) and is taken if 2|s| < min(|s_pre|,
    3|s_bis| - delta), delta = (xtol + rtol |x_cur|)/2; else the bracket is
    bisected.  A step is at least delta long.  Stops when half the bracket
    is below delta or f(x_cur) = 0.

    Raises NoBracket when f(a), f(b) have the same sign, when f returns NaN
    and after 100 iterations without convergence.
    """

    def value(x):
        fx = float(f(x))
        if np.isnan(fx):
            raise NoBracket(f"the function is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoBracket(f"no sign change on [{xpre!r}, {xcur!r}]: "
                        f"f = {fpre:.6g}, {fcur:.6g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NoBracket(f"Brent's method did not converge in {_BRENT_MAXITER} "
                    f"iterations; last iterate {xcur!r}")


def theta2_logdd0(lam: float) -> float:
    """theta2''(0)/theta2(0) on the rhombic lattice 1/2 + i*lam (a real number)."""
    lat = rhombic(lam)
    return _real(theta_grid(2, 0.0, lat, 2) / theta_grid(2, 0.0, lat, 0),
                 "theta2''(0)/theta2(0)")


def solve_lambda0() -> float:
    """The unique lambda in [0.1, 0.6] with theta2''(0 | 1/2 + i lambda) = 0."""
    return brentq(theta2_logdd0, 0.1, 0.6, xtol=1e-14, rtol=8.9e-16)


def solve_critical_omega(lat: Lattice) -> Family:
    """The unique omega in (0, pi/4) with theta2'(omega | tau) = 0.

    A scan in steps of 1e-3 brackets it for Brent's method.  Exists iff
    lambda < lambda0; otherwise NoCriticalOmega is raised.
    """
    if lat.kind != "rhombic":
        raise InvalidLattice("critical omega is defined for rhombic lattices")

    def g(w):
        return _real(theta_grid(2, w, lat, 1) / theta_grid(2, w, lat, 0),
                     "theta2'/theta2 at real omega")

    grid = np.arange(1e-3, np.pi / 4, 1e-3)
    vals = np.real(theta_grid(2, grid, lat, 1) / theta_grid(2, grid, lat, 0))
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        raise NoCriticalOmega(
            f"theta2' has no zero in (0, pi/4) at lambda={lat.lam} (lambda >= lambda0)"
        )
    i = idx[0]
    omega = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
    # Newton polish on theta2' itself
    for _ in range(3):
        d1 = theta_grid(2, omega, lat, 1)
        if abs(d1) < 1e-13:
            break
        omega -= (d1 / theta_grid(2, omega, lat, 2)).real
    return Family(lat, float(omega), "critical")


# ---------------------------------------------------------------------------
# coefficient functions U, U1, U2


def _uu1_parts(u, fam: Family):
    """Complex U and U1 at u (exponential factors kept), with the theta
    values and factors their derivatives reuse.

    u may be an array.  The denominator theta is td, guarded against its
    zeros.
    """
    lat, omega, i = fam.lattice, fam.omega, fam.den
    t2u = theta_grid(i, u, lat)
    if np.any(np.abs(t2u) < 1e-8):
        k = np.argmin(np.abs(t2u))
        raise PoleProximity(f"theta{i}({np.ravel(u)[k]}) = {np.ravel(t2u)[k]} "
                            "too close to zero")
    k = -fam.t1p0 / (2 * fam.td)
    t1p, t1m = theta_grid(1, u + omega, lat), theta_grid(1, u - omega, lat)
    ep, em = np.exp(-u * fam.c), np.exp(u * fam.c)
    U = k * t1p / t2u * ep
    U1 = -k * t1m / t2u * em
    return U, U1, (k, t2u, t1p, t1m, ep, em)


def _uu1_complex(u, fam: Family):
    """Complex-valued (U, U', U1, U1') at u, general omega (exponential factors kept).

    u may be an array.  The denominator theta is td (the real reductions of
    the same complex formula).
    """
    lat, omega, i, c = fam.lattice, fam.omega, fam.den, fam.c
    U, U1, (k, t2u, t1p, t1m, ep, em) = _uu1_parts(u, fam)
    t2pu = theta_grid(i, u, lat, 1)
    t1pd = theta_grid(1, u + omega, lat, 1)
    t1md = theta_grid(1, u - omega, lat, 1)
    Up = k * ep * (t1pd * t2u - t1p * t2pu) / t2u ** 2 - c * U
    U1p = -k * em * (t1md * t2u - t1m * t2pu) / t2u ** 2 + c * U1
    return U, Up, U1, U1p


def riccati_u_u1(u, fam: Family):
    """The Riccati coefficients (U, U1) at real u, a number or an array,
    without the derivatives and U2 that `coeffs` adds."""
    U, U1, _ = _uu1_parts(u, fam)
    return _real(U, "U"), _real(U1, "U1")


def c1_at_critical(fam: Family) -> float:
    """The Lame constant C1 = U2(omega) = theta1'(0)^2/td(omega)^2 (e1 + e2
    + e3) at every omega: th1(w)^2/th2(0)^2 + th4(w)^2/th3(0)^2 +
    th3(w)^2/th4(0)^2 on rhombic, th1(w)^2/th4(0)^2 - th3(w)^2/th2(0)^2 -
    th2(w)^2/th3(0)^2 on rectangular lattices.  It keeps the name of the
    critical-omega form it generalizes: benchmarks count its calls by it."""
    e1, e2, e3 = fam.e
    return _real(fam.t1p0 ** 2 / fam.td ** 2 * (e1 + e2 + e3), "U2(omega)")


def coeffs(u, fam: Family) -> CoeffSample:
    """(U, U1, U2, U', U1') at real u, a number or an array (then the
    fields are arrays of its shape); U2 = C1 - 6 U U1 with the family's
    cached Lame constant."""
    U, Up, U1, U1p = _uu1_complex(u, fam)
    U2 = fam.C1 - 6 * U * U1
    return CoeffSample(U=_real(U, "U"), U1=_real(U1, "U1"), U2=_real(U2, "U2"),
                       Uprime=_real(Up, "U'"), U1prime=_real(U1p, "U1'"))


def g2g3(u0: float, fam: Family):
    """Weierstrass invariants of the quartic governing the planar u-curves.

    y^2 = -U1(u0)^2 x^4 + 2U1'(u0) x^3 - U2(u0) x^2 - 2U'(u0) x - U(u0)^2,
    written as c0 x^4 + 4c1 x^3 + 6c2 x^2 + 4c3 x + c4 for the classical
    g2 = c0 c4 - 4 c1 c3 + 3 c2^2 and
    g3 = c0 c2 c4 + 2 c1 c2 c3 - c2^3 - c0 c3^2 - c1^2 c4.
    Independent of u0.
    """
    s = coeffs(u0, fam)
    c0, c1, c2, c3, c4 = (-s.U1 ** 2, s.U1prime / 2, -s.U2 / 6, -s.Uprime / 2, -s.U ** 2)
    g2 = c0 * c4 - 4 * c1 * c3 + 3 * c2 ** 2
    g3 = c0 * c2 * c4 + 2 * c1 * c2 * c3 - c2 ** 3 - c0 * c3 ** 2 - c1 ** 2 * c4
    return g2, g3
