"""The writers' number-to-text kernel: byte for byte Python's % operator."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from isoforge import textfmt
from isoforge.cli import cli

FLOAT_FORMATS = [(textfmt.g12, "%.12g"), (textfmt.f2, "%.2f")]


def _texts(cells):
    """The text of each cell of a 1-D array."""
    return textfmt.join([cells, b"\n"]).decode().split("\n")[:-1]


def _assert_matches(values):
    x = np.asarray(values, dtype=float)
    for spell, fmt in FLOAT_FORMATS:
        assert _texts(spell(x)) == [fmt % v for v in x.tolist()], fmt


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_match_percent_formatting(values):
    """NaN, infinities, signed zeros and subnormals included."""
    _assert_matches(values)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-10 ** 13,
                                                                10 ** 13),
                min_size=1, max_size=40))
def test_int_cells_match_percent_formatting(values):
    n = np.array(values, dtype=np.int64)
    assert _texts(textfmt.d(n)) == ["%d" % v for v in values]


def _ulps(x, k):
    """x and its k nearest floats on either side."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def _landing_on_ties(rng, scales, lo, hi, count=40):
    """Floats v next to a rounding tie of v * 10**k, for each k of scales,
    whose product rounded to a float is the tie while the exact product is
    not: rounding the float product, half to even, may round them the wrong
    way.  Draws count ties per scale, digits in [lo, hi)."""
    found = []
    for k in scales:
        tie = (rng.integers(lo, hi, count) + 0.5) / 10.0 ** k
        for v in _ulps(tie, 3).tolist():
            exact = Fraction(v) * 10 ** k
            half = Fraction(2 * math.floor(exact) + 1, 2)
            if exact != half == Fraction(v * 10.0 ** k):
                found.append(v)
    return np.array(found)


def test_values_whose_scaled_product_lands_on_a_tie():
    """At every exponent of the fixed notation (and past its ends): values
    that a fast path trusting the float product would round the wrong way
    at a tie of the 13th significant digit (the 3rd decimal for '%.2f')."""
    rng = np.random.default_rng(7)
    values = np.concatenate([
        _landing_on_ties(rng, range(-1, 18), 10 ** 11, 10 ** 12),
        _landing_on_ties(rng, [2], 0, 10 ** 14)])
    assert len(values) > 200
    _assert_matches(np.concatenate([values, -values]))


def test_values_next_to_powers_of_ten_take_the_fast_path(monkeypatch):
    """The logarithm that finds the decimal exponent may miss it by one
    next to a power of ten: the fast path still spells those values."""
    slow = []
    fill = textfmt._cells
    monkeypatch.setattr(textfmt, "_cells", lambda words, x, fmt, ok, sep: (
        slow.append(np.sum(~ok)), fill(words, x, fmt, ok, sep))[1])
    x = _ulps(10.0 ** np.arange(-4, 12), 3)
    assert _texts(textfmt.g12(x)) == ["%.12g" % v for v in x.tolist()]
    assert slow == [0]


@pytest.mark.parametrize("value", [
    # e = -5 / -4: scientific below 1e-4, fixed from it on
    9.99999999999e-5, 9.999999999994e-5, 9.999999999995e-5,
    9.999999999996e-5, 1e-4, 1.00000000001e-4, 1e-5,
    # e = 11 / 12: fixed below 1e12 after rounding
    99999999999.5, 99999999999.99, 999999999999.4, 999999999999.5,
    999999999999.6, 1e12, 1e11, 123456789012.5,
    # '%.2f' around the 1e10 end of its fast path
    9999999999.994, 9999999999.995, 1e10, 0.005, 0.015, 0.125])
def test_notation_switches(value):
    _assert_matches(_ulps(np.array([value, -value]), 2))


def test_cells_keep_the_shape_of_their_array():
    x = np.arange(6.0).reshape(2, 3) / 7
    cells = textfmt.g12(x)
    assert cells.shape[1:] == (2, 3)
    for i in range(2):
        assert _texts(cells[:, i]) == ["%.12g" % v for v in x[i]]


def test_join_lays_out_constants_separators_and_cells():
    x = np.array([1.5, -2.0, 1e-7])
    n = np.array([[1, -20, 300], [4, 5, -6]])
    rows = textfmt.join([b"v", textfmt.g12(x, b" "), textfmt.f2(x, b","),
                         textfmt.d(n, b";"), b"\r\n"])
    assert rows == (b"v 1.5,1.50;1;4\r\n"
                    b"v -2,-2.00;-20;5\r\n"
                    b"v 1e-07,0.00;300;-6\r\n")


def test_readme_curves_take_the_fast_path(tmp_path, monkeypatch):
    """Python's % spells at most 0.1 % of the '%.12g' cells of the five
    default curves of the README config at --n 4096."""
    cells, slow = [], []
    fill = textfmt._cells

    def counted(words, x, fmt, ok, sep):
        cells.append(ok.size)
        slow.append(np.sum(~ok))
        return fill(words, x, fmt, ok, sep)

    monkeypatch.setattr(textfmt, "_cells", counted)
    cfg = {"lattice": {"kind": "rhombic", "lambda": 0.32},
           "omega": {"mode": "critical"},
           "reparam": {"kind": "analytic", "mean": 1.0053, "amplitude": 0.35,
                       "period": 6.0},
           "grid": {"nu": 128, "nv": 128}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    result = CliRunner().invoke(cli, ["curves", str(path), "--n", "4096",
                                      "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert sum(cells) == 4097 * (1 + 5 * 6)   # u once, six columns per curve
    assert sum(slow) <= 1e-3 * sum(cells)


def test_f2_spells_only_the_groups_its_values_need():
    """'%.2f' cells take one 4-digit integer group below 1e4, two below 1e8
    and three above, counting only the fast path's values, and stay byte
    for byte Python's % at every group boundary."""
    edges = np.array([9999.994, 9999.995, 1e4, 99999999.994, 99999999.995,
                      1e8, 0.004, 0.005])
    for top, groups in [(9999.99, 1), (10000.0, 2), (99999999.99, 2),
                        (1e8, 3), (9e9, 3)]:
        x = np.array([0.0, -1.5, top, -top])
        assert len(textfmt.f2(x)) == groups + 2
        _assert_matches(x)
    # a value that the slow path spells adds no group
    assert len(textfmt.f2(np.array([1.5, np.nan, -np.inf]))) == 3
    _assert_matches(np.concatenate([_ulps(edges, 2), -_ulps(edges, 2),
                                    [np.nan, np.inf, 1e15, 123.456]]))
    rng = np.random.default_rng(3)
    _assert_matches(rng.uniform(-1e4, 1e4, 100000))
