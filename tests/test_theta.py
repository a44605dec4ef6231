"""Theta evaluation against an independent high-precision series oracle."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoforge import theta
from isoforge.errors import InvalidLattice, StripExceeded

RNG = np.random.default_rng(20240817)


def _mp_theta(i, z, lat, order=0):
    """Oracle: mpmath's jtheta with the nome q = e^{i pi tau}."""
    with mpmath.workdps(40):
        q = mpmath.e ** (1j * mpmath.pi * mpmath.mpmathify(lat.tau))
        val = mpmath.jtheta(i, mpmath.mpmathify(complex(z)), q,
                            derivative=order)
    return complex(val)


@pytest.mark.parametrize("lam", [0.01, 0.0135, 0.02])
def test_roundoff_tracks_the_error_of_theta2_at_zero(lam):
    """Lattice.roundoff, the relative round-off the cancelling terms of a
    small rhombic lambda leave at theta2(0), is within a factor 10 of
    theta2(0)'s error against mpmath; without cancellation it is eps."""
    lat = theta.rhombic(lam)
    want = _mp_theta(2, 0.0, lat)
    err = abs(complex(theta.theta_grid(2, 0.0, lat)) - want) / abs(want)
    assert err / 10 <= lat.roundoff <= 10 * err
    for flat in (theta.rhombic(0.32), theta.rectangular(0.01)):
        assert flat.roundoff < 2 * np.finfo(float).eps


def _random_strip_points(lat, n=8):
    re = RNG.uniform(-np.pi, np.pi, n)
    im = RNG.uniform(-lat.strip_height, lat.strip_height, n)
    return re + 1j * im


@pytest.mark.parametrize("lat", [theta.rhombic(0.32), theta.rhombic(0.2),
                                 theta.rectangular(0.9)],
                         ids=["rhombic032", "rhombic020", "rect090"])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_series_vs_mpmath_oracle(lat, i, order):
    for z in _random_strip_points(lat, 5):
        got = complex(theta.theta_grid(i, z, lat, order))
        want = _mp_theta(i, z, lat, order)
        scale = max(1.0, abs(want))
        assert abs(got - want) < 1e-9 * scale


def test_vectorization_matches_scalar():
    lat = theta.rhombic(0.32)
    zs = _random_strip_points(lat, 6)
    grid = theta.theta_grid(2, zs, lat, 1)
    for z, g in zip(zs, grid):
        assert abs(g - complex(theta.theta_grid(2, z, lat, 1))) < 1e-13


def test_parity():
    lat = theta.rhombic(0.25)
    for z in _random_strip_points(lat, 6):
        t1 = theta.theta_grid(1, z, lat)
        assert abs(theta.theta_grid(1, -z, lat) + t1) < 1e-12 * max(1, abs(t1))
        for i in (2, 3, 4):
            ti = theta.theta_grid(i, z, lat)
            assert abs(theta.theta_grid(i, -z, lat) - ti) < 1e-12 * max(1, abs(ti))


def test_pi_periodicity():
    lat = theta.rectangular(0.8)
    for z in _random_strip_points(lat, 4):
        for i, sign in ((1, -1), (2, -1), (3, 1), (4, 1)):
            a = theta.theta_grid(i, z + np.pi, lat)
            b = sign * theta.theta_grid(i, z, lat)
            assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_quasiperiodicity():
    for lat in (theta.rhombic(0.3), theta.rectangular(1.0)):
        for i in (1, 2, 3, 4):
            z = complex(RNG.uniform(-1, 1), RNG.uniform(-0.2, 0.2))
            assert theta.quasiperiodicity_residual(i, z, lat) < 1e-9


def test_rhombic_conjugation():
    lat = theta.rhombic(0.2)
    assert theta.rhombic_conjugation_residual(2, 0.7, lat) < 1e-12
    assert theta.rhombic_conjugation_residual(2, 1.0 - 0.3j, lat) < 1e-10
    assert theta.rhombic_conjugation_residual(1, 0.4 + 0.1j, lat) < 1e-10
    with pytest.raises(InvalidLattice):
        theta.rhombic_conjugation_residual(2, 0.5, theta.rectangular(0.5))
    with pytest.raises(ValueError):
        theta.rhombic_conjugation_residual(3, 0.5, lat)


def test_addition_formulas():
    assert theta.addition_formula_residual(0.3, 0.3, theta.rhombic(0.3)) < 1e-12
    assert theta.addition_formula_residual(0.5, 0.2j, theta.rhombic(0.25)) < 1e-10
    assert theta.addition_formula_residual(1.2, 0.7, theta.rectangular(1.0)) < 1e-10


def test_derivatives_converge_to_fd():
    """d1, d2 match central differences with observed order >= 1.9."""
    lat = theta.rhombic(0.32)
    z = 0.37 + 0.41j
    for order, col in ((1, "d1"), (2, "d2")):
        errs = []
        for h in (1e-3, 5e-4):
            lo = theta.theta_grid(2, z - h, lat, order - 1)
            hi = theta.theta_grid(2, z + h, lat, order - 1)
            fd = (hi - lo) / (2 * h)
            errs.append(abs(fd - complex(theta.theta_grid(2, z, lat, order))))
        order_obs = np.log2(errs[0] / errs[1])
        assert order_obs > 1.9, (col, order_obs)


def test_strip_guard():
    lat = theta.rhombic(0.2)
    with pytest.raises(StripExceeded):
        theta.theta_grid(1, 1j * (lat.strip_height + 0.5), lat)


def test_lattice_validation():
    with pytest.raises(InvalidLattice):
        theta.Lattice("hexagonal", 0.3)
    with pytest.raises(InvalidLattice):
        theta.rhombic(-0.1)


def test_truncation_certified():
    """The stored truncation bound really covers the strip: compare a point
    near the strip edge against the oracle at tight tolerance."""
    lat = theta.rhombic(0.35)
    z = 0.5 + 1j * (lat.strip_height - 1e-3)
    got = complex(theta.theta_grid(3, z, lat))
    want = _mp_theta(3, z, lat)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def _linear_truncation(lam):
    """The tail bound of `Lattice.truncation` summed in linear scale, which
    overflows above lambda ~ 10.2: an oracle below that."""
    absq, h = np.exp(-np.pi * lam), 2 * np.pi * lam
    for n in range(1, theta._MAX_TERMS):
        half = 2 * absq ** ((n + 0.5) ** 2) * np.exp((2 * n + 1) * h) * (2 * n + 1) ** 2
        whole = 2 * absq ** (n * n) * np.exp(2 * n * h) * (2 * n) ** 2
        if half + whole < theta._TOL:
            return n


def test_truncation_in_logs_matches_the_linear_bound():
    """The log-space bound picks the linear bound's N wherever that one is
    finite."""
    for lam in np.linspace(0.01, 10.0, 400):
        assert theta.rhombic(float(lam)).truncation == _linear_truncation(lam)


@pytest.mark.parametrize("lat", [theta.rectangular(20.0), theta.rhombic(20.0)])
def test_truncation_on_tall_strips(lat):
    """Above lambda ~ 10.2 the linear bound computed 0 * inf (a numpy
    RuntimeWarning, an error under this suite) and blamed the term count;
    in logs it certifies a few terms, and theta matches the oracle inside
    the strip."""
    assert 3 <= lat.truncation <= 6
    z = 0.4 + 1j * 0.5 * lat.strip_height
    want = _mp_theta(3, z, lat)
    assert abs(complex(theta.theta_grid(3, z, lat)) - want) < 1e-10 * abs(want)


def test_tall_strip_refuses_z_beyond_the_float_range():
    """On rectangular lambda 200 the strip reaches |Im z| = 1257, but
    e^{2iz} underflows to 0 from |Im z| ~ 354 on: a number raised
    ZeroDivisionError and an array gave inf with a RuntimeWarning.  Both,
    and the tensor kernel, refuse such z with StripExceeded, and a point
    just inside the float range matches the oracle."""
    lat = theta.rectangular(200.0)
    z = 0.4 + 628.3j
    with pytest.raises(StripExceeded, match="float range"):
        theta.theta_grid(1, z, lat)
    with pytest.raises(StripExceeded, match="float range"):
        theta.theta_grid(1, np.array([0.1, z]), lat)
    with pytest.raises(StripExceeded, match="float range"):
        theta.theta_tensor([(1, 0)], [0.4], [628.3j], lat)
    inside = 0.4 - 1j * (theta._FLOAT_IM - 0.01)
    want = _mp_theta(1, inside, lat)
    for got in (theta.theta_grid(1, inside, lat),
                theta.theta_grid(1, np.array([inside]), lat)[0]):
        assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("frac", [0.75, 1.0])
def test_tensor_refuses_b_whose_terms_leave_the_float_range(frac):
    """On rectangular lambda 20 (N = 5 terms, H = 126) the tensor kernel
    forms e^{+-i m_n b} up to m_n = 2N - 1 as numbers: at |Im b| = 0.75 H it
    returned NaN (invalid value in divide), at H +-inf (divide by zero),
    where theta_grid is finite.  It raises StripExceeded there, and at
    0.5 H agrees with theta_grid."""
    lat = theta.rectangular(20.0)
    a = np.array([0.1, 0.4])
    for sign in (1.0, -1.0):
        b = sign * 1j * lat.strip_height
        assert np.all(np.isfinite(theta.theta_grid(1, a + frac * b, lat)))
        with pytest.raises(StripExceeded, match="float range"):
            theta.theta_tensor([(1, 0)], a, [frac * b], lat)
        got = theta.theta_tensor([(1, 0)], a, [0.5 * b], lat)[0, :, 0]
        want = theta.theta_grid(1, a + 0.5 * b, lat)
        assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lat", [theta.rhombic(0.32), theta.rectangular(0.9)],
                         ids=["rhombic032", "rect090"])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_array_matches_scalar_and_oracle(lat, i, order):
    """Arrays of any shape give the scalar value at each point (and the
    oracle's), including |Re z| up to 50; the shape is kept."""
    h = lat.strip_height
    re = np.concatenate([RNG.uniform(-np.pi, np.pi, 6), [-50.0, 50.0],
                         RNG.uniform(-50, 50, 4)])
    zs = (re + 1j * RNG.uniform(-h, h, 12)).reshape(3, 4)
    for z in (zs, zs[0], zs[:1, :1]):
        grid = theta.theta_grid(i, z, lat, order)
        assert grid.shape == z.shape
        for zk, g in zip(z.ravel(), grid.ravel()):
            one = theta.theta_grid(i, zk, lat, order)
            assert abs(g - one) < 1e-13 * max(1.0, abs(one))
            want = _mp_theta(i, zk, lat, order)
            assert abs(g - want) < 1e-9 * max(1.0, abs(want))
    z0 = np.asarray(zs[1, 2])
    got = theta.theta_grid(i, z0, lat, order)
    assert np.shape(got) == ()
    assert got == theta.theta_grid(i, complex(z0), lat, order)
    got = theta.theta_grid(i, 0.7, lat, order)
    want = _mp_theta(i, 0.7, lat, order)
    assert np.shape(got) == () and abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_strip_edge_is_certified():
    """Points on |Im z| = H evaluate (and match the oracle); points just
    beyond raise, as numbers and inside arrays."""
    lat = theta.rhombic(0.32)
    h = lat.strip_height
    edge = np.array([0.4 + 1j * h, -1.3 - 1j * h])
    vals = theta.theta_grid(2, edge, lat)
    for z, got in zip(edge, vals):
        want = _mp_theta(2, z, lat)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        assert theta.theta_grid(2, z, lat) == pytest.approx(got, rel=1e-13)
    for im in (h + 1e-9, -h - 1e-9):
        with pytest.raises(StripExceeded, match="exceeds certified strip"):
            theta.theta_grid(2, 0.4 + 1j * im, lat)
        with pytest.raises(StripExceeded, match="exceeds certified strip"):
            theta.theta_grid(2, np.append(edge, 0.4 + 1j * im), lat)


def test_index_and_order_validation():
    lat = theta.rhombic(0.32)
    with pytest.raises(ValueError, match="theta index must be 1..4"):
        theta.theta_grid(5, 0.1, lat)
    with pytest.raises(ValueError, match="derivative order must be 0..2"):
        theta.theta_grid(1, 0.1, lat, 3)


def test_large_array_memory_peak():
    """Temporaries scale with the number of points, not points x terms."""
    lat = theta.rhombic(0.32)
    z = np.linspace(-3, 3, 4096) + 0.5j
    theta.theta_grid(1, z[:2], lat, 1)  # fill the coefficient cache
    tracemalloc.start()
    try:
        theta.theta_grid(1, z, lat, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# the tensor kernel: theta at a_j + b[k, l]

_TENSOR_LATTICES = [theta.rhombic(0.25), theta.rhombic(0.345),
                    theta.rectangular(0.5), theta.rectangular(0.9)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lat=st.sampled_from(_TENSOR_LATTICES), i=st.sampled_from([1, 2, 3, 4]),
       orders=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=4),
       a=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=7),
       nb=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_tensor_matches_theta_grid(lat, i, orders, a, nb, seed):
    """Every plane equals theta_grid on the points a_j + b[k, l], to
    1e-13 of max(1, max |theta|), with Im b up to the strip edge."""
    rng = np.random.default_rng(seed)
    h = lat.strip_height
    b = rng.uniform(-np.pi, np.pi, (len(orders), nb)) \
        + 1j * h * rng.choice([-1.0, 1.0, 0.0, rng.uniform(-1, 1)],
                              (len(orders), nb))
    a = np.array(a)
    got = theta.theta_tensor([(i, k) for k in orders], a, b, lat)
    assert got.shape == (len(orders), len(a), nb)
    assert got.flags.c_contiguous
    for k, order in enumerate(orders):
        want = theta.theta_grid(i, a[:, None] + b[k], lat, order)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got[k] - want)) <= 1e-13 * scale


def test_tensor_blocks_rows_and_matches_oracle():
    """More rows than one block of the left factor, against mpmath at a
    few points, and a b-array given as a list of vectors."""
    lat = theta.rhombic(0.32)
    h = lat.strip_height
    a = np.linspace(-3.0, 3.0, 2000)
    assert len(a) > theta._BLOCK_ENTRIES // (2 * lat.truncation)
    b = [np.array([0.2 + 0.5j, -0.4 - 1j * h]), np.array([1.1j, 0.3 + 1j * h])]
    got = theta.theta_tensor([(2, 0), (2, 2)], a, b, lat)
    for k, order in enumerate((0, 2)):
        for j in (0, 777, 1999):
            for l in (0, 1):
                want = _mp_theta(2, a[j] + b[k][l], lat, order)
                assert abs(got[k, j, l] - want) < 1e-11 * max(1.0, abs(want))


def test_tensor_checks_strip_index_and_order():
    lat = theta.rhombic(0.32)
    h = lat.strip_height
    a = np.array([0.1, 0.2])
    theta.theta_tensor([(1, 0)], a, [[1j * h]], lat)
    with pytest.raises(StripExceeded, match="exceeds certified strip"):
        theta.theta_tensor([(1, 0)], a, [[0.3, 1j * (h + 1e-9)]], lat)
    with pytest.raises(ValueError, match="theta index must be 1..4"):
        theta.theta_tensor([(1, 0), (0, 0)], a, [[0.3], [0.3]], lat)
    with pytest.raises(ValueError, match="derivative order must be 0..2"):
        theta.theta_tensor([(1, 3)], a, [[0.3]], lat)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lat=st.sampled_from(_TENSOR_LATTICES),
       rows=st.lists(st.tuples(st.sampled_from([1, 2, 3, 4]),
                               st.sampled_from([0, 1, 2])),
                     min_size=1, max_size=7),
       na=st.integers(1, 700), nb=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
def test_tensor_mixes_indices_and_orders(lat, rows, na, nb, seed):
    """Rows of any theta indices and orders, in any order, in one call:
    every array is within 1e-12 of theta_grid (scaled by max(1, max
    |theta|)), and each run of rows of one theta index equals, bit for
    bit, the one-index call on that run alone.  Up to 700 values of a
    span several blocks of the left factor."""
    rng = np.random.default_rng(seed)
    h = lat.strip_height
    a = rng.uniform(-4.0, 4.0, na)
    b = rng.uniform(-np.pi, np.pi, (len(rows), nb)) \
        + 1j * h * rng.uniform(-1, 1, (len(rows), nb))
    got = theta.theta_tensor(rows, a, b, lat)
    assert got.shape == (len(rows), na, nb)
    for r, (i, order) in enumerate(rows):
        want = theta.theta_grid(i, a[:, None] + b[r], lat, order)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got[r] - want)) <= 1e-12 * scale
    for _, rs in theta._runs([i for i, _ in rows]):
        assert np.array_equal(got[rs], theta.theta_tensor(rows[rs], a, b[rs],
                                                          lat))


# property tests: random points of the certified strip |Im z| <= H

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_LATTICES = [theta.rhombic(0.25), theta.rhombic(0.3), theta.rhombic(0.345),
             theta.rectangular(0.5)]
_unit = st.floats(-1.0, 1.0)
_re = st.floats(-np.pi, np.pi)


@_PROPERTY
@given(lat=st.sampled_from(_LATTICES), re=_re, t=_unit,
       i=st.sampled_from([1, 2, 3, 4]))
def test_quasiperiodicity_property(lat, re, t, i):
    """z and z + pi*tau both in the strip: Im z in [-H, H - pi*lam]."""
    h, shift = lat.strip_height, np.pi * lat.lam
    z = complex(re, -h + (t + 1) / 2 * (2 * h - shift))
    assert theta.quasiperiodicity_residual(i, z, lat) < 1e-9


@_PROPERTY
@given(lat=st.sampled_from(_LATTICES), xr=_re, xt=_unit, yr=_re, yt=_unit)
def test_addition_formulas_property(lat, xr, xt, yr, yt):
    """x, y with |Im| <= H/2, so x + y and x - y stay in the strip."""
    h = lat.strip_height / 2
    x, y = complex(xr, xt * h), complex(yr, yt * h)
    assert theta.addition_formula_residual(x, y, lat) < 1e-10


@_PROPERTY
@given(lat=st.sampled_from(_LATTICES[:3]), re=_re, t=_unit,
       i=st.sampled_from([1, 2]))
def test_rhombic_conjugation_property(lat, re, t, i):
    z = complex(re, t * lat.strip_height)
    assert theta.rhombic_conjugation_residual(i, z, lat) < 1e-10
