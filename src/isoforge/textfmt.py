"""Numbers to text for whole arrays, byte for byte what Python's % gives.

`g12`, `f2` and `d` turn an array into cells: for each element, a few
words (uint32 or uint64) whose bytes, with their NUL padding removed,
are exactly `'%.12g' % x`, `'%.2f' % x` or `'%d' % n`.  `join` lays cells
and constant text out as rows and drops the padding; `table` does that for
a long array, a chunk of rows at a time.

The fast path rounds in float64 and spells in int64.  A value is scaled
by an exact power of ten so that rounding it to an integer gives its
leading digits, as Python rounds them: to nearest, ties to even, on the
exact product.  The scaled value s is that product rounded to a float,
and below 1e12, where every tie k + 1/2 is a float too.  Rounding to a
float keeps order, so s lies on the same side of each tie as the exact
product, or on the tie itself; `rint(s)` is therefore the correct
rounding unless s is a tie.  Such a cell goes to Python's %, as does
every cell that is non-finite, zero, or outside the range the fast path
spells: 12-digit fixed notation for '%.12g', magnitudes below 1e10 for
'%.2f' and 1e12 for '%d'.  '%.12g' scales by the floored logarithm's
power of ten, and again, as a fresh product, where s misses [1e11, 1e12).
Integers split into 4-digit groups by int64 floor division; '%.12g' reads
its trailing zeros off the last group (all three where that one is 0000).

The digits are spelt four at a time from tables, and each word of a cell
is one table lookup (and mask) over all the cells at once, so that no
operation loops over the bytes of one cell.  The first byte of a cell
is its separator, or a NUL.
"""

from __future__ import annotations

import numpy as np

_ROWS = 1024  # rows per chunk of a table

# _P10[k] = 10**(k - 1), exact in float64 from k = 1 on
_P10 = np.array([0.1] + [float(10 ** k) for k in range(18)])


def _lookup(columns, dtype):
    """The table whose entry i holds the bytes columns[0][i],
    columns[1][i], ... as words, one row per word."""
    table = np.stack(list(np.asarray(columns, np.uint8)), axis=-1)
    return np.ascontiguousarray(table.view(dtype).T)


# row k: digit k of 0000 .. 9999 and of 10000, which is spelt "1000" (see
# g12), in ASCII, and where it is a zero
_ASCII = np.empty((4, 10, 10, 10, 10), np.uint8)
for _k in range(4):
    _ASCII[_k] = np.arange(10, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
_ASCII = np.concatenate([_ASCII.reshape(4, 10000), [[1], [0], [0], [0]]],
                        axis=1)
_Z = _ASCII == 0
_ASCII += ord("0")
# entry g: "0042" for g = 42, a group of four digits; entry _LEADING + g:
# "\0\0" "42", the same as the leading group of a number (its units digit
# is always shown); entry _BLANK: "\0\0\0\0", a group before that
_LEADING, _BLANK = 10000, 20000
_GROUPS = np.zeros((4, 20001), np.uint8)
_GROUPS[:, :_LEADING] = _GROUPS[:, _LEADING:_BLANK] = _ASCII[:, :10000]
_GROUPS[0, _LEADING:_BLANK] *= ~_Z[0, :10000]
_GROUPS[1, _LEADING:_BLANK] *= ~(_Z[0] & _Z[1])[:10000]
_GROUPS[2, _LEADING:_BLANK] *= ~(_Z[0] & _Z[1] & _Z[2])[:10000]
_GROUPS = _lookup(_GROUPS, np.uint32)[0]
# the table offsets of the three groups of an integer, by whether its first
# and its second group are nonzero (column 2 * first + second)
_SHOWN = np.array([[_BLANK, _BLANK, _LEADING, _LEADING],
                   [_BLANK, _LEADING, 0, 0],
                   [_LEADING, 0, 0, 0]])
# each digit of a group followed by a slot holding the point, which the
# mask of a cell keeps where the point goes
_SLOTTED = np.full((8, 10001), ord("."), np.uint8)
_SLOTTED[::2] = _ASCII
_SLOTTED = _lookup(_SLOTTED, np.uint64)[0]
_Z = _Z.view(np.int8).astype(np.intp)
_TRAILING = _Z[3] * (1 + _Z[2] * (1 + _Z[1] * (1 + _Z[0])))  # trailing zeros
_CENTS = _lookup([np.full(100, ord(".")), *_ASCII[2:, :100], np.zeros(100)],
                 np.uint32)[0]
del _k, _ASCII, _Z

# '%.12g' cells by code (xp + 4) * 26 + sig * 2 + negative, for the decimal
# exponent xp in [-4, 11] of the rounded value and its number sig of
# significant digits, 0 to 12: word 0 holds the sign and the "0." and zeros
# before the digits, if any; the mask of words 1 to 3 keeps the first
# max(sig, xp + 1) slotted digits and the slot after digit xp, the point,
# if digits follow it
_CODE = np.arange(16 * 13 * 2)
_XP, _SIG, _NEG = _CODE // 26 - 4, _CODE % 26 // 2, _CODE % 2
_LEAD = np.where(_XP < 0, 1 - _XP, 0)
_BYTE = np.arange(24)[:, None]
_WORD0 = _lookup([np.zeros(_CODE.size), _NEG * ord("-"),
                  *[(_LEAD > k) * c for k, c in enumerate(b"0.000")],
                  np.zeros(_CODE.size)], np.uint64)[0]
_MASK = _lookup(255 * (((_BYTE % 2 == 0)
                        & (_BYTE // 2 < np.maximum(_SIG, _XP + 1)))
                       | ((_BYTE == 2 * _XP + 1) & (_SIG > _XP + 1))),
                np.uint64)
del _CODE, _XP, _SIG, _NEG, _LEAD, _BYTE
_MINUS32 = np.frombuffer(b"\0-\0\0", np.uint32)[0]
_NUL = b"\0"


def _split(m, groups=3):
    """The last `groups` 4-digit groups of the integers m in
    [0, 1e4 ** groups] (a non-finite float m warns in its cast to int64),
    most significant first, as a (groups, n) int64 array (1e12 in three
    groups: 10000, 0, 0)."""
    g = np.empty((groups, m.size), np.int64)
    g[-1] = m
    for k in range(groups - 1):
        np.floor_divide(g[-1], 10 ** (4 * (groups - 1 - k)), out=g[k])
        g[-1] -= g[k] * 10 ** (4 * (groups - 1 - k))
    return g


def _integer(m, out):
    """Fill out, of shape (groups, n) with groups <= 3, with the words of
    the integers m in [0, 1e4 ** groups), without leading zeros."""
    groups = len(out)
    g = _split(m, groups)
    # the column of _SHOWN, as if the groups left out were zeros
    state = sum(np.sign(g[k]) << (groups - 2 - k) for k in range(groups - 1))
    g += _SHOWN[3 - groups:].take(state, axis=1, mode="clip")
    _GROUPS.take(g, mode="clip", out=out)


def _cells(words, x, fmt, ok, sep):
    """The cells words of the array x, shaped (words,) + x.shape, with sep
    in their first byte and the cells where ok fails spelt by Python's
    fmt."""
    if len(sep) > 1:
        raise ValueError(f"a separator is at most one byte, not {sep!r}")
    size = words.dtype.itemsize
    if sep:
        words[0] |= np.frombuffer(sep.ljust(size, _NUL), words.dtype)[0]
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = [(sep or _NUL) + (fmt % v).encode()
                for v in x.ravel()[slow].tolist()]
        width = max(len(words), -(-max(map(len, text)) // size))
        if width > len(words):
            words = np.concatenate([words, np.zeros(
                (width - len(words), words.shape[1]), words.dtype)])
        words[:, slow] = np.array(text, dtype=f"S{width * size}").view(
            words.dtype).reshape(-1, width).T
    return words.reshape(len(words), *x.shape)


def g12(x, sep=b""):
    """Cells of sep + '%.12g' % v for each v of the float array x, with sep
    at most one byte: an array of shape (words,) + x.shape."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.abs(flat)
        e = np.fmin(np.fmax(np.floor(np.log10(a)), -5.0), 11.0).astype(int)
        # a * 10**(11 - e) lies in [1e11, 1e12) for the decimal exponent e
        # of a, which the logarithm may miss by one next to a power of ten:
        # those cells (and zeros, non-finite values) take a fresh product
        s = a * _P10.take(12 - e)
        redo = np.flatnonzero((s < 1e11) | (s >= 1e12))
        if redo.size:
            e[redo] += (s[redo] >= 1e12).astype(int) - (s[redo] < 1e11)
            s[redo] = a[redo] * _P10.take(12 - e[redo])
        m = np.rint(s)
        ok = np.abs(s - m) < 0.5
        if redo.size:
            ok[redo] &= (s[redo] >= 1e11) & (s[redo] < 1e12)
        g = _split(m)
    # the trailing zeros of m, from its last group unless that is 0000; a
    # carry to m = 1e12 raises e by one and spells 1000 0000 0000
    tz = _TRAILING.take(g[2], mode="clip")
    zeros = np.flatnonzero(g[2] == 0)
    e[zeros] += m[zeros] == 1e12
    t = _TRAILING.take(g[:2, zeros], mode="clip")
    tz[zeros] = 4 + t[1] + (t[1] >> 2) * t[0]
    ok &= (e >= -4) & (e <= 11)
    code = (e + 4) * 26 + 2 * (12 - tz) + np.signbit(flat)
    words = np.empty((4, flat.size), np.uint64)
    _WORD0.take(code, mode="clip", out=words[0])
    _SLOTTED.take(g, mode="clip", out=words[1:])
    words[1:] &= _MASK.take(code, axis=1, mode="clip")
    return _cells(words, x, "%.12g", ok, sep)


def f2(x, sep=b""):
    """Cells of sep + '%.2f' % v for each v of the float array x.  The
    integer part takes as many 4-digit groups as the largest one of the
    fast path needs (one for the coordinates of an SVG)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(flat) * 100.0
        m = np.rint(s)
        ok = (m < 1e12) & (np.abs(s - m) < 0.5)  # false for nan, inf
        cents = m.astype(np.int64)
    whole = cents // 100
    cents -= whole * 100
    top = np.max(whole, where=ok, initial=0)
    groups = 1 + int(top >= 10 ** 4) + int(top >= 10 ** 8)
    words = np.empty((groups + 2, flat.size), np.uint32)
    np.multiply(np.signbit(flat), _MINUS32, out=words[0])
    _integer(whole, words[1:-1])
    _CENTS.take(cents, mode="clip", out=words[-1])
    return _cells(words, x, "%.2f", ok, sep)


def d(n, sep=b""):
    """Cells of sep + '%d' % k for each k of the integer array n."""
    n = np.asarray(n)
    flat = n.ravel()
    ok = (flat > -10 ** 12) & (flat < 10 ** 12)
    words = np.empty((4, flat.size), np.uint32)
    np.multiply(flat < 0, _MINUS32, out=words[0])
    _integer(np.abs(flat), words[1:])
    return _cells(words, n, "%d", ok, sep)


def join(parts):
    """The rows laid out by parts, as bytes without the NUL padding.  A part
    is either constant bytes, the same in every row, or cells of shape
    (words, rows), one per row, or (words, columns, rows), several."""
    layout, at = [], 0
    for part in parts:
        if isinstance(part, bytes):
            layout.append((at, np.frombuffer(part, np.uint8)))
            at += len(part)
            continue
        if part.ndim == 2:
            part = part[:, None]
        for cells in part.swapaxes(0, 1):
            at += -at % part.itemsize
            layout.append((at, cells))
            at += len(cells) * part.itemsize
    rows = next(p.shape[1] for _, p in layout if p.ndim == 2)
    out = np.zeros((rows, at - at % -8), np.uint8)
    for start, part in layout:
        if part.ndim == 1:
            out[:, start:start + len(part)] = part
            continue
        k = start // part.itemsize
        out.view(part.dtype)[:, k:k + len(part)] = part.T
    return out.tobytes().translate(None, _NUL)


def table(rows, parts):
    """The bytes of rows 0 .. rows - 1, _ROWS rows at a time; parts(chunk)
    gives the join parts of the rows in the slice chunk."""
    for lo in range(0, rows, _ROWS):
        yield join(parts(slice(lo, lo + _ROWS)))
