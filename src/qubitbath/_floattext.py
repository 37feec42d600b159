"""The text of float64 arrays, byte for byte as ``float.__repr__`` and ``'%.17g'`` print it.

CPython prints one float at a time, at about 1 us a value.  This module
prints a whole array with a fixed sequence of numpy ``uint64`` operations,
after Ryu (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018):

* A finite value below ``2**50`` is ``4m * 2**e2`` with an integer ``4m``
  below ``2**55`` and ``e2 < 0``.  For its biased exponent, a table holds
  ``e10`` and a power-of-5 multiplier ``M`` such that ``floor(k * M /
  2**128)`` is exactly ``floor(k * 2**e2 / 10**e10)`` for the ``k`` near
  ``4m`` that Ryu multiplies: Ryu's 125-bit multipliers, moved up so that
  every exponent shifts by 128.  ``M`` is held as five 32-bit limbs in
  ``uint64``, so each partial product fits in 64 bits.  The product is
  formed once, for ``4m``; the quotients for ``4m + 2`` and for ``4m - 1``
  or ``4m - 2`` follow from its low 128 bits and tabulated multiples of
  ``M``.
* ``repr`` is Ryu's ``d2d``: the bounds of the interval of reals that
  round to the value, then the most digits that can be cut while a number
  stays inside it, found in steps of 16, 8, 4, 2 and 1 digits.  Where a
  digit cut may be an exact zero (``floor(v / 10**e10)`` is exact: round
  values such as 0.5 or 8.0) Ryu tracks those zeros digit by digit;
  CPython prints those lanes instead.
* ``'%.17g'`` needs only ``floor(v / 10**e10)``, which has 18 or 19 digits
  for every normal value below ``2**50``, and whether it is exact; its
  digits are rounded half to even to 17.  Subnormal lanes, whose quotient
  has fewer digits, are printed by CPython.

Values of ``2**50`` and above, ``inf`` and ``nan`` are printed by CPython
too, and so is every pass of fewer than ``_NUMPY_LANES`` values, for
which the fixed cost of the numpy sequence (about 0.2 ms) exceeds
CPython's.  The tables are built from Python integers on first use, not
at import.  Each value's text comes back as 24 bytes (the length of
``'-2.2250738585072014e-308'``, the longest) in three little-endian
``uint64`` words.  The bytes past the text are NUL, and no text holds a
NUL, on every route (numpy digits, CPython's text, the zeros), so a text
is the words' non-NUL prefix: ``cli.write_records`` picks a float cell's
bytes as the ones that are not NUL.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # bytes of text per value

_U = np.uint64
_1, _2, _8, _10, _32, _52, _63, _64 = map(_U, (1, 2, 8, 10, 32, 52, 63, 64))
_LOW32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_BIG = 1073  # the biased exponent of 2**50, from which CPython prints the values
_NUMPY_LANES = 256  # fewer values are printed by CPython
_NO_POINT = 24  # a point position past every digit: no decimal point
_EXP_MIN = -324  # decimal exponent of 5e-324
_ZEROS = {True: ["0.0", "-0.0"], False: ["0", "-0"]}


@functools.cache
def _tables() -> dict:
    """The per-exponent and layout tables, built on first use.

    Per biased exponent below :data:`_BIG`:

    * ``limbs`` (5, _BIG): ``M`` in 32-bit limbs.
    * ``e10``: the decimal exponent of ``floor(k * 2**e2 / 10**e10)``.
    * ``exact``: ``2**q - 1``, or all ones where q >= 64, such that the
      quotient is exact where ``k & exact == 0``: ``k * 2**e2 / 10**e10``
      is ``k * 5**(-e2 - q) / 2**q`` with ``q = e10 - e2``.
    * ``up`` (3, _BIG): ``2M >> 128`` and ``2**128 - (2M mod 2**128)`` in
      two words; ``down`` (3, 2 * _BIG): ``cM >> 128`` and ``cM mod
      2**128`` in two words, for c = 1 in the first half and c = 2 in the
      second.  ``2M mod 2**128`` is never 0 here.

    For the layout: ``masks`` and ``points`` (3, 25), the words whose first
    b bytes are ones and the words holding "." at byte b (none at b = 24);
    ``fronts`` (12,), "-" where negative and then the first 0 to 5 bytes of
    "0.000", at 6 * negative + lead; ``exps``, "e-05" for each exponent -324 to 308.
    """
    limbs = np.zeros((5, _BIG), dtype=np.uint64)
    e10 = np.zeros(_BIG, dtype=np.int64)
    exact = np.full(_BIG, 2**64 - 1, dtype=np.uint64)
    up, down = np.zeros((3, _BIG), dtype=np.uint64), np.zeros((3, 2 * _BIG), dtype=np.uint64)

    def words(v: int) -> list[int]:  # v >> 128, then the two words of v mod 2**128
        return [v >> 128, (v >> 64) & (2**64 - 1), v & (2**64 - 1)]

    for be in range(_BIG):
        e2 = max(be, 1) - 1077  # subnormals share the smallest exponent
        q = ((-e2 * 732923) >> 20) - 1  # floor(-e2 log10 5) - 1, as Ryu takes it for -e2 > 1
        e10[be] = q + e2
        pow5 = 5 ** (-e2 - q)
        mul = pow5 >> max(pow5.bit_length() - 125, 0) << max(125 - pow5.bit_length(), 0)
        mul <<= 128 - (q - pow5.bit_length() + 125)  # Ryu's shifts run from 118 to 125
        limbs[:, be] = [(mul >> (32 * k)) & 0xFFFFFFFF for k in range(5)]
        if q < 64:
            exact[be] = 2**q - 1
        up[:, be] = words(((2 * mul) >> 128 << 128) + 2**128 - (2 * mul) % 2**128)
        down[:, be], down[:, _BIG + be] = words(mul), words(2 * mul)
    ones = [[(1 << 8 * min(max(b - 8 * w, 0), 8)) - 1 for b in range(25)] for w in range(3)]
    points = [[0x2E << 8 * (b - 8 * w) if 0 <= b - 8 * w < 8 and b < _NO_POINT else 0 for b in range(25)] for w in range(3)]
    fronts = [int.from_bytes((b"-" if neg else b"") + b"0.000"[:lead], "little") for neg in (0, 1) for lead in range(6)]
    exps = [f"e{x:+03d}" for x in range(_EXP_MIN, 309)]
    return dict(limbs=limbs, e10=e10, exact=exact, up=up, down=down,
                masks=np.array(ones, dtype=np.uint64), points=np.array(points, dtype=np.uint64),
              fronts=np.array(fronts, dtype=np.uint64),
              exps=np.array([int.from_bytes(x.encode(), "little") for x in exps], dtype=np.uint64))


def _mulshift(m: np.ndarray, mul: np.ndarray):
    """floor(m * M / 2**128) for m < 2**55 and M < 2**136 in 32-bit limbs, and m * M mod 2**128 in two words.

    The ten 32 x 32-bit partial products are summed by 32-bit columns;
    ``t`` carries a column's low halves and the carry, ``c`` the next
    column's high halves, and no sum exceeds 2**35.
    """
    a, b = m >> _32, m & _LOW32
    m0, m1, m2, m3, m4 = mul
    p = b * m0
    low0, t = p & _LOW32, p >> _32
    p = b * m1
    t += p & _LOW32
    c = p >> _32
    p = a * m0
    t += p & _LOW32
    c += p >> _32
    low0 |= t << _32
    t >>= _32
    t += c
    p = b * m2
    t += p & _LOW32
    np.right_shift(p, _32, out=c)
    p = a * m1
    t += p & _LOW32
    c += p >> _32
    low1 = t & _LOW32
    t >>= _32
    t += c
    p = b * m3
    t += p & _LOW32
    np.right_shift(p, _32, out=c)
    p = a * m2
    t += p & _LOW32
    c += p >> _32
    low1 |= t << _32
    t >>= _32
    t += c
    # the quotient is below 2**63, so these sums cannot wrap
    b *= m4
    t += b
    b = a * m3
    t += b
    a *= m4
    a <<= _32
    t += a
    return t, low0, low1


def _shortest_digits(t, m2, frac, be, e10):
    """Ryu's d2d where no trailing zero is exact: the shortest digits, their count and exponent, and the lanes for Python."""
    mv = m2 << _2
    python = (mv & np.take(t["exact"], be)) == 0
    vr, low0, low1 = _mulshift(mv, np.take(t["limbs"], be, axis=1))
    del mv
    # vp and vm, the quotients of 4m + 2 and of 4m - 1 or 4m - 2 (-2 except at a power of 2)
    bounds = np.empty((2, len(vr)), dtype=np.uint64)
    up = np.take(t["up"], be, axis=1)
    np.add(vr, up[0], out=bounds[0])
    bounds[0] += (low1 > up[1]) | ((low1 == up[1]) & (low0 >= up[2]))
    down = np.take(t["down"], be + _BIG * ((frac != 0) | (be <= 1)), axis=1)
    np.subtract(vr, down[0], out=bounds[1])
    bounds[1] -= (low1 < down[1]) | ((low1 == down[1]) & (low0 < down[2]))
    del up, down, low0, low1
    # the most digits whose cut leaves vp and vm apart; only the first digit cut decides
    # the rounding, since no digit cut is an exact zero (those lanes go to Python)
    removed = np.zeros(len(vr), dtype=np.intp)
    for step in (16, 8, 4, 2, 1):
        cut = bounds // _POW10[step]
        ok = cut[0] > cut[1]
        np.copyto(bounds, cut, where=ok)
        removed += ok * step
    scale = np.take(_POW10, removed)
    output = vr // scale
    output += (output == bounds[1]) | ((vr - output * scale) * _2 >= scale)
    nd = np.searchsorted(_POW10, output, side="right")  # its decimal digits
    output *= np.take(_POW10, 17 - nd)
    return output, nd, e10 + removed + nd - 1, python


def _g17_digits(t, m2, be, e10):
    """The 17 digits rounded half to even, their count without trailing zeros and exponent, and the lanes for Python."""
    mv = m2 << _2
    exact = (mv & np.take(t["exact"], be)) == 0
    vr = _mulshift(mv, np.take(t["limbs"], be, axis=1))[0]  # floor(v / 10**e10)
    del mv
    two = vr >= _POW10[18]  # 19 digits: cut two, else one
    scale = np.where(two, _POW10[2], _POW10[1])
    digits = vr // scale
    rem = (vr - digits * scale) * _2
    digits += (rem > scale) | ((rem == scale) & (~exact | ((digits & _1) == 1)))
    carry = digits == _POW10[17]
    digits[carry] = _POW10[16]
    nd = np.full(len(vr), 17, dtype=np.intp)
    stripped = digits
    for step in (16, 8, 4, 2, 1):
        cut = stripped // _POW10[step]
        ok = cut * _POW10[step] == stripped
        stripped = np.where(ok, cut, stripped)
        nd -= ok * step
    return digits, nd, e10 + two + 17 + carry, vr < _POW10[17]


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as ASCII, first digit in the lowest byte; x is overwritten."""
    hi = x // _U(10000)
    x -= hi * _U(10000)
    x <<= _32
    x |= hi  # two 4-digit halves in 32-bit fields
    q = x * _U(5243)
    q >>= _U(19)
    q &= _U(0x7F0000007F)  # // 100 in each field
    x -= q * _U(100)
    x <<= _U(16)
    x |= q  # four 2-digit quarters in 16-bit fields
    np.multiply(x, _U(103), out=q)
    q >>= _10
    q &= _U(0x000F000F000F000F)  # // 10 in each field
    x -= q * _10
    x <<= _8
    x |= q
    x |= _U(0x3030303030303030)
    return x


def _layout(t, digits, nd, exp10, negative, shortest: bool):
    """(3, n) words of the text of 17 digits, the count that prints, and the decimal exponent, NUL past it.

    ``digits`` is overwritten.
    """
    words = np.empty((3, len(digits)), dtype=np.uint64)
    words[0] = digits // _POW10[9]
    digits -= words[0] * _POW10[9]  # the last 9 digits
    words[1] = digits // _10
    words[2] = digits - words[1] * _10
    words[2] |= _U(0x30)
    _ascii8(words[:2])
    expform = (exp10 < -4) | (exp10 >= (16 if shortest else 17))
    lead = ~expform & (exp10 < 0)
    # in fixed notation every digit before the point prints, and repr adds ".0"
    shown = np.where(expform | lead, nd, np.maximum(nd, exp10 + (2 if shortest else 1)))
    point = np.where(expform, 1, exp10 + 1)
    dotted = (point < shown) & ~lead
    point[~dotted] = _NO_POINT
    part = np.take(t["masks"], shown, axis=1)
    words &= part
    np.take(t["masks"], point, axis=1, out=part, mode="clip")  # "clip": no buffer for out
    part &= words  # the digits before the point stay; those after it move up one byte
    words ^= part
    carry = words[:-1] >> _U(56)
    words <<= _8
    words[1:] |= carry
    words |= part
    words |= np.take(t["points"], point, axis=1, out=part, mode="clip")
    del part
    # the sign and the "0.000" of fixed notation below 1 go in front
    lead_len = np.where(lead, 1 - exp10, 0)
    front = negative + lead_len
    bits = (front * 8).astype(np.uint64)
    carry = words[:-1] >> (_64 - bits)  # a shift by 64 gives 0 in numpy
    words <<= bits
    words[1:] |= carry
    del carry
    words[0] |= np.take(t["fronts"], 6 * negative + lead_len)
    end = front + shown + dotted
    del shown, point, dotted, lead_len, front
    # "e", the exponent's sign and at least two of its digits
    tail = np.take(t["exps"], np.where(expform, exp10 - _EXP_MIN, 0)) * expform
    np.multiply(end, 8, out=bits, casting="unsafe")
    for w in range(3):
        words[w] |= (tail << (bits - _U(64 * w))) | (tail >> (_U(64 * w) - bits))  # wrapped counts give 0
    return words


def _pack(texts: list[str]) -> np.ndarray:
    """(3, n) words holding ASCII texts of at most 24 bytes."""
    raw = np.array([text.encode() for text in texts], dtype=f"S{WIDTH}")
    return raw.view(np.uint64).reshape(-1, 3).T


def _python_text(values: list[float], shortest: bool) -> np.ndarray:
    """(3, n) words of values printed by CPython."""
    return _pack(list(map(repr if shortest else "%.17g".__mod__, values)))


def float_text(values: np.ndarray, shortest: bool) -> np.ndarray:
    """Text of a 1-D float64 array, by ``repr`` (``shortest``) or ``'%.17g'``: (3, n) words, NUL past each text.

    ``words[k]`` holds bytes 8k to 8k + 7 of each value's text.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if len(values) < _NUMPY_LANES:
        return _python_text(values.tolist(), shortest)
    return _numpy_text(values, shortest)


def _numpy_text(values: np.ndarray, shortest: bool) -> np.ndarray:
    """(3, n) words of a contiguous float64 array, the digits computed in numpy."""
    t = _tables()
    bits = values.view(np.uint64)
    negative = (bits >> _63).astype(np.intp)
    be = ((bits >> _52) & _U(0x7FF)).astype(np.intp)
    frac = bits & _U((1 << 52) - 1)
    zero = (bits << _1) == 0
    big = be >= _BIG
    if zero.any() or big.any():  # they take the digits of 1.0000000000000002 until replaced
        odd = zero | big
        be[odd], frac[odd] = 1023, 1
    m2 = frac | ((be != 0).astype(np.uint64) << _52)
    if shortest:
        digits, nd, exp10, python = _shortest_digits(t, m2, frac, be, np.take(t["e10"], be))
    else:
        digits, nd, exp10, python = _g17_digits(t, m2, be, np.take(t["e10"], be))
    del m2, frac
    words = _layout(t, digits, nd, exp10, negative, shortest)
    lanes = np.flatnonzero(zero)
    if lanes.size:
        words[:, lanes] = _pack(_ZEROS[shortest])[:, negative[lanes]]
    lanes = np.flatnonzero(python | big)
    if lanes.size:
        words[:, lanes] = _python_text(values[lanes].tolist(), shortest)
    return words
