"""Float tables as CSV text, byte for byte what Python's repr writes.

Cells with 1e-4 <= |v| < 1e16 (repr's positional range) and +-0.0 are
formatted by array operations, every other cell by repr itself.  The
digits are the shortest round trip, as in Ryu (Adams, PLDI 2018): with
k = 16 - E, E about log10|v|, Dekker's TwoProduct (Numer. Math. 1971)
splits |v| * 10^k exactly into p + e, p an even integer in [1e16, 1e17]
and |e| <= 8.  What reads back as v is p + e - L .. p + e + U, with
U = ulp(v) / 2 * 10^k, and L = U / 2 where the mantissa field is 0, else
U.  The digits are its multiple of 10^j with the largest j, the nearest
to p + e of two (j = 1, ties to the even digit), else p + rint(e)
(U, L > 0.55).  Its ends are odd multiples of 2^(e2-53) * 10^k or
2^(e2-54) * 10^k with 2^e2 <= |v| and e2 + k <= 54: never multiples of
20, and of 10 only where p + e is one too, and nearer.  So whether repr
counts the ends in (round half to even) changes no digit.
"""

import numpy as np

# cells per pass: 64 KB int64 temporaries; one pass over a 256 x 257
# block took 1.7x as long, its temporaries faulting in fresh pages
_CHUNK = 8192
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
_P10 = np.array([float(10 ** k) for k in range(22)])  # exact: 5**21 < 2**53
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_POW = 10 ** np.arange(2, 18)
_QUAD = np.ascontiguousarray(np.moveaxis(  # "0000".."9999" as 4 bytes
    np.indices((10,) * 4, np.uint8) + 48, 0, -1)).view(np.uint32).ravel()
# Each cell's row, 48 bytes: "-0.0", "000" S, ".00" S, sep, pad (S its 17
# digits, trailing zeros included; E its exponent).  Its text is
# [-] 0 . z zeros S[:n] when E < 0 (z = -E - 1, zero is "0." + "0"), and
# [-] S[:E+1] . S[E+1:max(n, E+2)] when E >= 0: the bytes marked by
# _LAYOUT[((E + 4) * 17 + n - 1) * 2 + negative], with the separator.
_E, _N, _S, _C = np.ix_(np.arange(-4, 16), np.arange(1, 18), np.arange(2),
                        np.arange(48))
_LAYOUT = (((_C == 0) & (_S == 1)) | (_C == 44) | np.where(
    _E < 0,
    (_C == 1) | (_C == 2) | ((_C >= 4) & (_C < 3 - _E))
    | ((_C >= 7) & (_C < 7 + _N)),
    ((_C >= 7) & (_C <= 7 + _E)) | (_C == 24)
    | ((_C >= 28 + _E) & (_C < 27 + np.maximum(_N, _E + 2))))
           ).reshape(-1, 48)
_ROW0 = np.frombuffer(b"-0.0", np.uint32)[0]
del _E, _N, _S, _C


def _repr_cell(value):
    return repr(value)


def csv_text(table):
    """The CSV text of a 2-D float table: each cell exactly
    repr(float(v)), cells joined by ",", each row ended by "\\n".  Cells
    with 1e-4 <= |v| < 1e16 and +-0.0 are formatted by array operations
    (module docstring), every other cell by repr; the bytes are the same
    either way."""
    x = np.asarray(table, dtype=np.float64)
    rows, cols = x.shape
    if not cols:
        return "\n" * rows
    x = x.ravel()
    ends = np.arange(1, x.size + 1) % cols == 0
    return "".join([_cells(x[i:i + _CHUNK], ends[i:i + _CHUNK])
                    for i in range(0, x.size, _CHUNK)])


def _cells(x, ends):
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    v = np.where(fast, a, 1.0)
    bits = v.view(np.int64)
    pow2 = (bits & ((1 << 52) - 1)) == 0  # mantissa field 0
    e2 = (bits >> 52) - 1023
    k = 16 - ((e2 * 78913) >> 18)  # 16 - floor(e2 log10 2): p < 1e18,
    k -= v * _P10.take(k) >= 1e17  # and one step down keeps p >= 1e16
    c = _P10.take(k)
    p = v * c
    vh = v * _SPLIT - (v * _SPLIT - v)
    vl = v - vh
    ch = _P10_HI.take(k)
    cl = c - ch
    e = ((vh * ch - p) + vh * cl + vl * ch) + vl * cl
    # the window's integers lo..hi: U = 2^(e2-53) * 10^k, and e - L and
    # e + U are exact (multiples of 2^(e2+k-54) below 32)
    P = p.astype(np.int64)
    lo = P + np.ceil(
        e - ((e2 + 970 - pow2) << 52).view(np.float64) * c).astype(np.int64)
    hi = P + np.floor(e + ((e2 + 970) << 52).view(np.float64) * c).astype(
        np.int64)
    # j = 1: the multiples m and m - 10 of 10 at or below hi
    q = hi // 10
    m = q * 10
    above = (m - P) - e  # m - (p + e)
    down = (m - 10 >= lo) & ((above > 5) | ((above == 5) & ((q & 1) == 1)))
    has1 = m >= lo
    D = np.where(has1, m - 10 * down, P + np.rint(e).astype(np.int64))
    tz = has1.astype(np.int64)
    two = np.flatnonzero((hi // 100) * 100 >= lo)  # j >= 2: unique multiple
    if two.size:
        mj = hi[two, None] // _POW * _POW
        j = (mj >= lo[two, None]).sum(1)
        D[two] = mj[np.arange(two.size), j - 1]
        tz[two] = j + 1
    short = D < 10 ** 16  # 16 digits: write as 17 with a trailing zero
    D = np.where(short, D * 10, D)
    zero = x == 0
    D[zero] = 0
    exp10 = np.where(fast, 16 - k - short, -1)  # repr's cells: no "."
    n = np.where(zero, 1, 17 - tz - short)
    g = np.empty((x.size, 5), np.int64)  # 1 + 4 + 4 + 4 + 4 digits
    for i, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        g[:, i] = D // scale
        D = D - g[:, i] * scale
    g[:, 4] = D
    words = _QUAD.take(g)
    buf = np.empty((x.size, 12), np.uint32)
    buf[:, 0] = _ROW0
    buf[:, 1:6] = words
    buf[:, 6:11] = words
    b8 = buf.view(np.uint8)
    b8[:, 24] = 46
    b8[:, 44] = np.where(ends, 10, 44)
    mask = _LAYOUT.take(((exp10 + 4) * 17 + n - 1) * 2 + np.signbit(x),
                        axis=0)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:  # repr's texts, at most 24 bytes, before the separator
        texts = [_repr_cell(v).encode() for v in x[slow].tolist()]
        b8[slow, :24] = np.frombuffer(
            b"".join([t.ljust(24) for t in texts]), np.uint8).reshape(-1, 24)
        mask[slow, :24] = np.arange(24) < np.array(
            [len(t) for t in texts])[:, None]
    return np.extract(mask, b8).tobytes().decode("ascii")
