"""The shortest round-trip text of float64 arrays, byte for byte what repr prints.

fields(values) turns every value into the bytes of repr(float(value)), each
in a field of WIDTH bytes padded with NUL: the vectorised form of repr.
csv_rows(lead, values), grid's one entry point, writes a block of CSV rows,
each its lead fields and then its values' fields, from one buffer.

The digits are those of Dragonbox (Jeon, 2020), the main path of its
round-to-nearest-even rule for binary64, over numpy uint64 arrays: the
shortest decimal in the value's rounding interval, the closest to the value
when several are that short.  CPython's repr finds the same digits by Gay's
correctly rounded dtoa (mode 0), one value at a time.  A value is F 2^e, F
with its hidden bit; k = 2 - floor(e log10 2) and beta = e + floor(k log2
10).  The 128-bit cache entry phi_k = ceil(10^k 2^(127 - floor(k log2 10)))
takes u = (2F + 1) 2^beta to z, the upper 64 of the 192 bits of u phi_k:
the interval's upper end in units of 10^-k, floored.  The interval's width
there, delta = phi_k's high word >> (63 - beta), is 100 to 999.  One
division by 1000 then settles most values:

- r = z mod 1000 < delta: z - r lies in the interval, so the digits are
  z // 1000 without their trailing zeros;
- r > delta: no multiple of 1000 does, and the digits are 10 (z // 1000) +
  (r - delta // 2 + 50) // 100, the multiple of 100 nearest the value.

The rest, under 1% of random values, are left undecided and take
float.__repr__, the contract itself, once per distinct value:

- r = delta, where the fraction at the lower end decides;
- r = 0 with F odd, where the upper end may be excluded;
- r > delta with r - delta // 2 + 50 divisible by 100, a tie or a near one;
- u phi_k's second word within 2^33 of a carry into z, which only the
  third word would settle (about 1 value in 2^31);
- the powers of two, whose interval below is half as wide, zero and the
  subnormals.

The layout is repr's: positional for decimal exponents -4 to 15, with ".0"
after an integral value; otherwise d[.ddd]e+XX or e-XX with at least two
exponent digits.  A set sign bit gives "-".  The 17 digits, as ASCII in
three little-endian uint64 words, four digits a lookup, are moved past the
sign and any leading "0.00", then past the point, by shifts and masks
looked up per layout; an exponential value then gains its exponent.

The tables are built on the first call, not at import, phi_k from Python
ints once for each k.  Every operand of the digit arithmetic is uint64,
since numpy turns uint64 combined with int64 into float64; exponents, digit
counts and table keys are int64 and meet no uint64.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest repr of a float64: -2.2250738585072014e-308

_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
_TEN = _U(10)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Dragonbox's tables, then the layout's, each with a row per key.

    Dragonbox's table is keyed by a value's top 12 bits, its sign and
    biased exponent, with columns: phi_k's high word, the top half of its
    low word, beta, delta and delta // 2 - 50.  e16, by the same key, is
    the decimal exponent of the first of 16 digits.

    A field's layout is one of 42: positional for each sign and decimal
    exponent, those below 0 first, then exponential for each sign, laid out
    as the mantissa d.ddd.  shifts and the layout table are keyed by 17
    layout + digit count - 1: the bits by which the digits move (past the
    sign and any leading "0.00"); the constant bytes (sign, leading zeros,
    point) and the mask of the field's bytes, in three words each.  The
    point table is keyed by layout, with the masks of the bytes before the
    point and of those after it.  base, keyed by 2 (top 12 bits) + 1 for 17
    digits, is the key for as many digits.  ascii4 holds the four ASCII
    digits of each number below 10^4.
    """
    e = np.arange(2048) - 1075  # 2047, infinity and NaN, is never looked up
    e[0] += 1  # the subnormals' e; they are left undecided
    e10 = (e * 315653) >> 20  # floor(e log10 2)
    k = 2 - e10
    kmin, kmax = int(k.min()), int(k.max())
    phi, p = [], 1
    for j in range(-1, kmin - 1, -1):  # 10^j = 2^j 5^j, rounded up
        p *= 5
        phi.append(-((-1 << (127 + j - ((j * 1741647) >> 19))) // p))
    phi.reverse()
    p = 1
    for j in range(kmax + 1):  # 10^j, scaled up or rounded up to 128 bits
        s = 127 - ((j * 1741647) >> 19)
        phi.append(p << s if s >= 0 else -(-p >> -s))
        p *= 10
    hi = np.array([c >> 64 for c in phi], dtype=np.uint64)[k - kmin]
    d1 = np.array([c >> 32 & 0xFFFFFFFF for c in phi], dtype=np.uint64)[k - kmin]
    beta = (e + ((k * 1741647) >> 19)).astype(np.uint64)  # e + floor(k log2 10)
    delta = hi >> (_U(63) - beta)
    dragonbox = np.stack([hi, d1, beta, delta, delta // _U(2) - _U(50)], axis=1)
    e16 = np.tile(e10 + 15, 2)

    # head[b]: the mask of a field's first b bytes.
    head = np.where(np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None], 0xFF, 0).astype(np.uint8).view("<u8")
    layouts = [(neg, sci) for sci_range in (range(-4, 0), range(16)) for neg in (0, 1) for sci in sci_range]
    prefix, const, at, size = [], b"", [], []
    for neg, sci in layouts + [(0, None), (1, None)]:
        text = b"-" * neg + (b"0." + b"0" * (-sci - 1) if sci is not None and sci < 0 else b"")
        prefix.append(len(text))
        at.append(len(text) + (sci or 0) + 1 if sci is None or sci >= 0 else 0)
        if sci is None or sci >= 0:  # NULs for the digits before the point
            text = text.ljust(at[-1], b"\0") + b"."
        const += text.ljust(WIDTH, b"\0")
        size += [prefix[-1] + (n + (n > 1) if sci is None else n if sci < 0 else max(n, sci + 2) + 1)
                 for n in range(1, 18)]
    shifts = np.repeat(8 * np.array(prefix, dtype=np.uint64), 17)
    layout = np.hstack([np.repeat(np.frombuffer(const, dtype="<u8").reshape(-1, 3), 17, axis=0), head[size]])
    point = np.hstack([head[at], ~head[np.array(at) + 1]])
    neg, sci = np.arange(4096)[:, None] >> 11, e16[:, None] + [0, 1]
    code = np.where(sci < 0, 4 * neg + sci + 4, 8 + 16 * neg + sci)
    code = np.where((sci < -4) | (sci > 15), 40 + neg, code)
    pair = np.arange(100) // 10 | np.arange(100) % 10 << 8
    ascii4 = (pair[:, None] | pair << 16).astype(np.uint64).ravel() | _U(0x30303030)
    return np.tile(dragonbox, (2, 1)), e16, (17 * code + 15 + [0, 1]).ravel(), shifts, layout, point, ascii4


def _mul(a0: np.ndarray, a1: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products (a1 2^32 + a0) b as (high, low) uint64 words, for a0, a1 < 2^32.

    Schoolbook multiplication of 32-bit halves (Warren, Hacker's Delight,
    8-2): no partial sum overflows 64 bits.
    """
    b0, b1 = b & _LO32, b >> _U(32)
    low = a0 * b0
    t = a1 * b0
    t += low >> _U(32)
    mid = a0 * b1
    mid += t & _LO32
    high = a1 * b1
    high += t >> _U(32)
    high += mid >> _U(32)
    low &= _LO32
    low |= mid << _U(32)
    return high, low


def _decimal(bits: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, zeros, undecided) of each value's IEEE bits and their top 12 bits.

    digits 10^(e16 - 15) is the shortest round-trip decimal, e16 the
    decimal exponent of the top 12 bits: digits has 16 or 17 digits, the
    last zeros of them trailing zeros.  Where undecided is set digits and
    zeros mean nothing.
    """
    dragonbox = _tables()[0]
    hi, d1, beta, delta, half = np.take(dragonbox, top, axis=0).T
    v = ((bits << _U(12)) >> _U(11)) | _U(2**53 + 1)  # 2F + 1
    u = v << beta
    a0, a1 = u & _LO32, u >> _U(32)
    z, low = _mul(a0, a1, hi)
    # u times phi_k's low word adds from a1 d1 to below a1 d1 + 2^33 to
    # low, d1 the top half of that word; near 2^64 the carry is unknown.
    least = a1 * d1
    low += least
    z += low < least

    s = z // _U(1000)
    r = z - s * _U(1000)
    small = r > delta
    dist = r - half
    t = dist // _U(100)
    digits = s * _TEN + t * small
    undecided = (low >= _U(2**64 - 2**33)) | (r == delta) | (small & (t * _U(100) == dist))
    undecided |= (r | (~v & _U(2))) == 0  # r = 0 and F odd
    undecided |= ((bits << _U(1)) < _U(2**53)) | (v == _U(2**53 + 1))  # subnormal, zero, 2^e

    # A value with r < delta has digits 10 s: one trailing zero and those of s.
    big = ~(small | undecided)
    zeros = big.astype(np.intp)
    q = s // _TEN
    i = np.flatnonzero(big & (q * _TEN == s))
    s = q[i]
    while i.size:
        zeros[i] += 1
        q = s // _TEN
        more = q * _TEN == s
        i, s = i[more], q[more]
    return digits, zeros, undecided


def _later(words: np.ndarray, bits) -> np.ndarray:
    """Byte strings held little-endian in the three rows of words, moved bits (0..64) later."""
    out = words << bits
    out[1:] |= words[:-1] >> (_U(64) - bits)
    return out


def _place(digits: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The fields of 17 digits laid out by their layout table keys, one row of three words each.

    The digits, as ASCII in three words, 4 digits a lookup, move past the
    sign and any leading "0.00", then those after a point move one byte
    more; the constant bytes and the field's mask follow.
    """
    shifts, layout, point, ascii4 = _tables()[3:]
    words = np.empty((3, len(digits)), dtype=np.uint64)
    np.floor_divide(digits, _U(10**9), out=words[0])
    digits = digits - words[0] * _U(10**9)
    np.floor_divide(digits, _TEN, out=words[1])
    words[2] = digits - words[1] * _TEN
    words[2] |= _U(0x30)
    high = words[:2] // _U(10**4)
    low = words[:2] - high * _U(10**4)
    words[:2] = np.take(ascii4, low.view(np.int64))
    words[:2] <<= _U(32)
    words[:2] |= np.take(ascii4, high.view(np.int64))
    words = _later(words, np.take(shifts, key))
    i = np.flatnonzero(key >= 8 * 17)  # the layouts with a point among the digits
    if i.size:
        moved = words[:, i]
        keep, drop = np.take(point, key[i] // 17, axis=0).reshape(-1, 2, 3).transpose(1, 2, 0)
        later = _later(moved, _U(8))
        later &= drop
        moved &= keep
        moved |= later
        words[:, i] = moved
    # Gathered only now, so that its (6, N) words and the point step's
    # arrays are not alive at once: grid's peak memory is set here.
    table = np.take(layout, key, axis=0).T
    words |= table[:3]
    out = np.empty((len(digits), 3), dtype="<u8")
    np.bitwise_and(words, table[3:], out=out.T)
    return out


def fields(values) -> np.ndarray:
    """The bytes of repr(float(v)) of every value, NUL-padded to WIDTH.

    Returns uint8 of shape values.shape + (WIDTH,).  ValueError for a value
    that is not finite.
    """
    x = np.asarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("only finite values have a shortest round-trip text")
    bits = np.ascontiguousarray(x).reshape(-1).view(np.uint64)
    top = (bits >> _U(52)).astype(np.intp)
    digits, zeros, undecided = _decimal(bits, top)
    e16, base = _tables()[1:3]
    wide = digits >= _U(10**16)
    key = np.take(base, 2 * top + wide) - zeros
    out = _place(np.where(wide, digits, digits * _TEN), key)

    i = np.flatnonzero(key >= 40 * 17)
    if i.size:
        # "e", the exponent's sign and two or three digits, after the
        # mantissa's bytes, at byte `at`.
        length = 16 + wide[i] - zeros[i]
        at = (top[i] >> 11) + length + (length > 1)
        sci = e16[top[i]] + wide[i]
        a = np.abs(sci)
        text = np.where(a >= 100, a // 100 | a // 10 % 10 << 8 | a % 10 << 16 | 0x303030,
                        a // 10 | a % 10 << 8 | 0x3030)
        text = (0x65 | np.where(sci < 0, 0x2D, 0x2B) << 8 | text << 16).astype(np.uint64)
        bit = (at % 8 * 8).astype(np.uint64)
        out[i, at // 8] |= text << bit
        out[i, np.minimum(at // 8 + 1, 2)] |= text >> (_U(64) - bit)  # nothing past the last word

    i = np.flatnonzero(undecided)
    if i.size:
        # repr's own text, once per distinct value.
        distinct = np.unique(bits[i])
        text = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=f"S{WIDTH}")
        out[i] = text.view("<u8").reshape(-1, 3)[np.searchsorted(distinct, bits[i])]
    return out.view(np.uint8).reshape(x.shape + (WIDTH,))


def csv_rows(lead: list[np.ndarray], values: np.ndarray) -> bytes:
    """CSV text of rows: each lead's (rows, WIDTH) fields, then the fields of values' (rows, m) columns.

    "," between fields, "\\n" after a row.  ValueError for a value that is
    not finite.
    """
    rows, m = values.shape
    buf = np.empty((rows, len(lead) + m, WIDTH + 1), dtype=np.uint8)
    # Each field's bytes copied as one item, not byte by byte.
    text = buf.view([("text", f"V{WIDTH}"), ("end", "u1")])[..., 0]["text"]
    for j, cells in enumerate(lead):
        text[:, j] = cells.view(f"V{WIDTH}")[:, 0]
    text[:, len(lead):] = fields(values).view(f"V{WIDTH}").reshape(rows, m)
    buf[..., WIDTH] = ord(",")
    buf[:, -1, WIDTH] = ord("\n")
    return buf[buf != 0].tobytes()
