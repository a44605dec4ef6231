"""Quaternion algebra and the complex-plane embedding into span{j, k}."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from isoforge import quat
from isoforge.errors import ZeroQuaternion

RNG = np.random.default_rng(5)

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def _random_quat():
    return RNG.normal(size=4)


def _norm(q):
    return float(np.sqrt(quat.qnorm2(q)))


# oracles: the unit quaternion, exp(angle k) and the embedding z -> z j of
# C into span{j, k}, which the library itself never needs


def qnormalize(a):
    n = np.sqrt(quat.qnorm2(a))
    if np.any(n == 0):
        raise ZeroQuaternion("cannot normalize the zero quaternion")
    return np.asarray(a, dtype=float) / n[..., None]


def qexp_k(angle):
    """exp(angle * k) as a quaternion array."""
    angle = np.asarray(angle, dtype=float)
    z = np.zeros_like(angle)
    return np.stack([np.cos(angle), z, z, np.sin(angle)], axis=-1)


def cj(z):
    """(a + b i) j = a j + b k as a vector array; z complex array -> (..., 3)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([np.zeros(z.shape), z.real, z.imag], axis=-1)


def test_hamilton_table():
    assert quat.qmul(I, J).tolist() == K.tolist()
    assert quat.qmul(J, K).tolist() == I.tolist()
    assert quat.qmul(K, I).tolist() == J.tolist()
    for e in (I, J, K):
        assert np.allclose(quat.qmul(e, e), [-1, 0, 0, 0])


def test_inverse():
    for _ in range(5):
        q = _random_quat()
        assert np.allclose(quat.qmul(q, quat.qinv(q)), ONE, atol=1e-13)


def test_zj_is_j_zbar():
    """(a + b i) j = j (a - b i) in the embedded complex plane."""
    for _ in range(5):
        a, b = RNG.normal(size=2)
        z = np.array([a, b, 0, 0])
        zbar = np.array([a, -b, 0, 0])
        assert np.allclose(quat.qmul(z, J), quat.qmul(J, zbar), atol=1e-14)


def test_embed_cj():
    assert cj(1).tolist() == [0, 1, 0]
    assert cj(1j).tolist() == [0, 0, 1]
    assert cj(2 - 3j).tolist() == [0, 2, -3]


def test_sandwich_identity_and_rotation():
    x = np.array([0.3, -0.7, 1.1])
    assert np.allclose(quat.qsandwich(ONE, x), x)
    # q = cos(pi/4) + sin(pi/4) k: q^{-1} j q = i (rotation by -pi/2 about k
    # under the q^{-1} X q convention, pinned by the direct product)
    q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
    out = quat.qsandwich(q, [0.0, 1.0, 0.0])
    assert np.allclose(out, [1, 0, 0], atol=1e-14)


def test_sandwich_isometry_and_axis_fixed():
    for _ in range(5):
        q = qnormalize(_random_quat())
        x = RNG.normal(size=3)
        out = quat.qsandwich(q, x)
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-13
        axis = q[1:]
        if np.linalg.norm(axis) > 1e-9:
            fixed = quat.qsandwich(q, axis)
            assert np.allclose(fixed, axis, atol=1e-12)


def test_norm_multiplicative():
    for _ in range(5):
        a, b = _random_quat(), _random_quat()
        assert abs(_norm(quat.qmul(a, b)) - _norm(a) * _norm(b)) < 1e-12


def test_commutator_is_twice_cross_product():
    for _ in range(5):
        xv, yv = RNG.normal(size=3), RNG.normal(size=3)
        x = np.concatenate([[0.0], xv])
        y = np.concatenate([[0.0], yv])
        comm = quat.qmul(x, y) - quat.qmul(y, x)
        assert np.allclose(comm[1:], 2 * np.cross(xv, yv), atol=1e-13)
        assert abs(comm[0]) < 1e-13


def test_qexp_k():
    a = 0.37
    q = qexp_k(a)
    assert np.allclose(q, [np.cos(a), 0, 0, np.sin(a)])
    assert abs(quat.qnorm2(q) - 1.0) < 1e-15


def test_cj_array_matches_embed():
    zs = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    arr = cj(zs)
    for z, row in zip(zs, arr):
        assert np.allclose(row, cj(complex(z)))


def test_broadcasting_sandwich():
    q = qnormalize(RNG.normal(size=4))
    vs = RNG.normal(size=(7, 3))
    out = quat.qsandwich(q, vs)
    for v, o in zip(vs, out):
        assert np.allclose(o, quat.qsandwich(q, v), atol=1e-13)


def test_zero_quaternion_guards():
    zero = np.zeros(4)
    with pytest.raises(ZeroQuaternion):
        quat.qinv(zero)
    with pytest.raises(ZeroQuaternion):
        qnormalize(zero)
    with pytest.raises(ZeroQuaternion):
        quat.qrotation(np.zeros((2, 4)))


def test_renormalization_stability():
    q = qnormalize(_random_quat())
    for _ in range(100):
        q = qnormalize(q)
    assert abs(_norm(q) - 1.0) < 1e-14


_coord = st.floats(-10.0, 10.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(q=st.tuples(_coord, _coord, _coord, _coord).filter(
           lambda q: float(np.dot(q, q)) > 1e-6),
       x=st.tuples(_coord, _coord, _coord), unit=st.booleans())
def test_qrotation_matches_sandwich(q, x, unit):
    """The matrix of X -> q^{-1} X q, for unit and non-unit q."""
    q = qnormalize(q) if unit else np.array(q)
    got = quat.qrotation(q) @ np.array(x)
    want = quat.qsandwich(q, x)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.linalg.norm(x))


def test_qrotation_broadcasts():
    qs = RNG.normal(size=(5, 2, 4))
    xs = RNG.normal(size=(5, 2, 3))
    got = np.einsum("...ab,...b->...a", quat.qrotation(qs), xs)
    assert quat.qrotation(qs).shape == (5, 2, 3, 3)
    assert np.max(np.abs(got - quat.qsandwich(qs, xs))) < 1e-13


def test_products_match_np_cross_bitwise():
    """quat.cross and qmul write out the operations np.cross and np.sum
    perform, so the frame stays bit-identical to the np.cross formula."""
    rng = np.random.default_rng(11)
    for n in (1, 7, 64, 1000):
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        np.testing.assert_array_equal(quat.cross(a, b), np.cross(a, b))
        p, q = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
        w = p[:, 0] * q[:, 0] - np.sum(p[:, 1:] * q[:, 1:], axis=-1)
        v = (p[:, :1] * q[:, 1:] + q[:, :1] * p[:, 1:]
             + np.cross(p[:, 1:], q[:, 1:]))
        np.testing.assert_array_equal(quat.qmul(p, q),
                                      np.concatenate([w[:, None], v], axis=1))
    one = rng.normal(size=4)
    np.testing.assert_array_equal(quat.qmul(one, p)[3], quat.qmul(one, p[3]))


_quat = st.tuples(_coord, _coord, _coord, _coord).map(np.array)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=_quat, q=_quat, r=_quat)
def test_qmul_associative_and_norm_multiplicative(p, q, r):
    scale = max(1.0, np.linalg.norm(p) * np.linalg.norm(q) * np.linalg.norm(r))
    left = quat.qmul(quat.qmul(p, q), r)
    right = quat.qmul(p, quat.qmul(q, r))
    assert np.max(np.abs(left - right)) <= 1e-14 * scale
    assert abs(np.sqrt(quat.qnorm2(quat.qmul(p, q)))
               - np.linalg.norm(p) * np.linalg.norm(q)) <= 1e-14 * max(
                   1.0, np.linalg.norm(p) * np.linalg.norm(q))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(q=_quat.filter(lambda q: float(np.dot(q, q)) > 1e-6))
def test_qmul_by_inverse_is_one(q):
    for prod in (quat.qmul(q, quat.qinv(q)), quat.qmul(quat.qinv(q), q)):
        assert np.max(np.abs(prod - [1.0, 0.0, 0.0, 0.0])) <= 1e-13


# oracles: cross, qmul and qrotation as they were written with np.stack,
# np.concatenate and np.moveaxis, before each wrote its components into
# one output array


def stacked_cross(a, b):
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1],
                    axis=-1)


def stacked_qmul(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, av = a[..., 0], a[..., 1:]
    bw, bv = b[..., 0], b[..., 1:]
    w = aw * bw - (av[..., 0] * bv[..., 0] + av[..., 1] * bv[..., 1]
                   + av[..., 2] * bv[..., 2])
    v = (aw[..., None] * bv + bw[..., None] * av + stacked_cross(av, bv))
    return np.concatenate([w[..., None], v], axis=-1)


def stacked_qrotation(q):
    q = np.asarray(q, dtype=float)
    n2 = quat.qnorm2(q)
    w, x, y, z = np.moveaxis(q, -1, 0)
    rows = ((w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
            (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
            (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z))
    m = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return m / n2[..., None, None]


def _same_bits(got, want):
    """Equal shapes and values, and equal signs of every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def _broadcasting_pair(draw, width):
    """Two float arrays of trailing axis `width` whose leading shapes
    broadcast against each other (either may be a single vector): normal
    deviates at a drawn scale, whose products round, with exact zeros of
    both signs in place of some."""
    shapes = draw(mutually_broadcastable_shapes(
        signature=f"({width}),({width})->({width})", max_dims=3, max_side=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    out = []
    for shape in shapes.input_shapes:
        x = scale * rng.normal(size=shape)
        zero = rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))
        x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
        out.append(x)
    return tuple(out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ab=_broadcasting_pair(3), pq=_broadcasting_pair(4))
def test_one_output_kernels_equal_the_stacked_expressions(ab, pq):
    """cross and qmul, each written into one output array, equal the
    stacked expressions bit for bit, zeros' signs included, on
    broadcasting shapes, and qrotation does on every nonzero quaternion."""
    _same_bits(quat.cross(*ab), stacked_cross(*ab))
    _same_bits(quat.qmul(*pq), stacked_qmul(*pq))
    for q in pq:
        if np.all(quat.qnorm2(q) != 0):
            _same_bits(quat.qrotation(q), stacked_qrotation(q))
