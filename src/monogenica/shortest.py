"""The shortest round-trip text of float64 arrays, byte for byte what repr prints.

fields(values) turns every value into the bytes of repr(float(value)), each
in a field of WIDTH bytes padded with NUL; csv_rows(cells) joins a table of
such fields into CSV text.  These two functions are the one place where the
command line turns a float into CSV text.

The digits are those of Ryu (Adams, PLDI 2018), d2d, over numpy uint64
arrays: the shortest decimal in the value's rounding interval, the closest
to the value when several are that short, ties to even.  CPython's repr
finds the same digits by Gay's correctly rounded dtoa (mode 0), one value
at a time, with a bignum search.  For a value m2 2^e2, Ryu scales 4 m2 and
the interval's bounds 4 m2 + 2 and 4 m2 - 1 - mm_shift by a 126-bit
multiplier 5^(+-q) 2^(-j), kept as two uint64 words: the results vr, vp and
vm are the value and its bounds in units of 10^e10.  The product
4 m2 * multiplier is formed once, from 32-bit halves, in three words; the
bounds add 2 multipliers to it and subtract 1 + mm_shift.  Digits are then
removed while vp and vm differ in more than their last digit; flags record
whether the digits removed from vr and vm were all zero, for the values and
lower bounds that are exact decimals, where a tie rounds to even.

The layout is repr's: positional for decimal exponents -4 to 15, with ".0"
after an integral value; otherwise d[.ddd]e+XX or e-XX with at least two
exponent digits.  A set sign bit gives "-", so -0.0 stays "-0.0".  The 17
digits, as ASCII in three little-endian uint64 words, are moved past the
sign and any leading "0.00", then past the point, by shifts and masks
looked up per layout; an exponential value then gains its exponent.

Ryu's per-exponent table and the layout's tables are built from Python ints
on the first call, not at import.  Every operand of the digit arithmetic is
uint64, since numpy turns uint64 combined with int64 into float64;
exponents and digit counts are int64 and meet no uint64.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest repr of a float64: -2.2250738585072014e-308

_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
_TEN = _U(10)
_HIDDEN = _U(1 << 52)
_ONE_BITS = _U(0x3FF0000000000000)  # 1.0, formatted in place of a zero
_POSITIONAL = 20  # decimal exponents -4..15


def _pow5bits(e: int) -> int:
    """Bits of 5^e, 1 for e = 0 (Ryu's pow5bits)."""
    return ((e * 1217359) >> 19) + 1


def _words(text: bytes) -> list[int]:
    """The three little-endian uint64 words of a field's bytes."""
    return [int.from_bytes(text[k:k + 8].ljust(8, b"\0"), "little") for k in (0, 8, 16)]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Ryu's per-exponent table, e10, the powers of ten and the layout's tables.

    Ryu's table has a column per biased exponent, with rows: the
    multiplier's low and high words, the right shift that takes bits
    j..j+63 of a 192-bit product from its upper two words, the
    trailing-zero test, and the test's kind.

    The layout's tables have a column per positional layout c = 20 neg +
    decimal exponent + 4: the bits by which the digits move (after the
    sign and the leading "0.00"), the masks of the bytes before the
    decimal point and of those after it, and the constant bytes (sign,
    leading zeros, point).  Then the masks of a field's bytes, a column
    per layout and digit count, and the masks of its first b bytes.
    """
    pow5 = [1]
    for _ in range(325):  # 5^325 is the largest multiplier power
        pow5.append(5 * pow5[-1])
    ryu = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            k = 124 + _pow5bits(q)
            mul, j, e10 = (1 << k) // pow5[q] + 1, q + k - e2, q
            # kind 1: the trailing-zero flags follow from divisibility by 5^q.
            kind, tz = (1, pow5[q]) if q <= 21 else (0, 2**64 - 1)
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            i = -e2 - q
            k = _pow5bits(i) - 125
            mul, j, e10 = pow5[i] >> k if k >= 0 else pow5[i] << -k, q - k, q + e2
            # kind 2 (q <= 1): vr is exact.  Otherwise vr is exact where
            # 2^q divides 4 m2: no bit of 4 m2 & tz is set.
            kind, tz = (2, 0) if q <= 1 else (0, (1 << q) - 1 if q < 63 else 2**64 - 1)
        ryu.append((mul & (2**64 - 1), mul >> 64, j - 64, tz, kind, e10))
    *ryu, e10 = zip(*ryu)

    head = [_words(b"\xff" * b) for b in range(WIDTH + 2)]  # masks of the first b bytes
    shift, keep, drop, const, size = [], [], [], [], []
    for neg in (0, 1):
        for sci in range(-4, 16):
            prefix = b"-" * neg + (b"0." + b"0" * (-sci - 1) if sci < 0 else b"")
            point = len(prefix) + sci + 1 if sci >= 0 else WIDTH  # none inside the digits
            shift.append(8 * len(prefix))
            keep.append(head[point])
            drop.append([~w & (2**64 - 1) for w in head[point + 1]])
            const.append(_words((prefix + b"\0" * WIDTH)[:point] + b"." if sci >= 0 else prefix))
            for length in range(1, 18):
                chars = length if sci < 0 else max(length, sci + 2) + 1
                size.append(head[len(prefix) + chars])
    u64 = functools.partial(np.array, dtype=np.uint64)
    return (u64(ryu), np.array(e10, dtype=np.int64), u64([10**k for k in range(20)]),
            u64(shift), *(u64(t).T.copy() for t in (keep, drop, const, size, head)))


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


def _decimal(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, e): the shortest round-trip decimal digits 10^e of each magnitude's bits.

    mag holds the IEEE bits of nonzero finite values with the sign cleared.
    """
    ryu, e10, pow10 = _tables()[:3]
    biased = (mag >> _U(52)).astype(np.intp)
    lo, hi, shift_r, tz, kind = np.take(ryu, biased, axis=1)
    m2 = mag & _U(2**52 - 1)
    # The interval below a power of two is half as wide (mm_shift false);
    # an even m2 rounds to itself from its interval's bounds, which it keeps.
    mm_shift = (m2 != 0) | (biased <= 1)
    even = (m2 & _U(1)) == 0
    m2 += (biased > 0) * _HIDDEN
    mv = m2 << _U(2)
    a0, a1 = mv & _LO32, mv >> _U(32)

    # The product mv * multiplier in words l2, l1, l0; the upper bound adds
    # d = 2 multipliers to it, the lower bound subtracts s = 1 + mm_shift.
    h, l0 = _mul(a0, a1, lo)
    l2, l1 = _mul(a0, a1, hi)
    l1 += h
    l2 += l1 < h
    d0, d1 = lo << _U(1), (hi << _U(1)) | (lo >> _U(63))
    s0, s1 = np.where(mm_shift, d0, lo), np.where(mm_shift, d1, hi)
    carry = l0 + d0 < l0
    u1 = l1 + d1
    u2 = l2 + (u1 < l1)
    u1 += carry
    u2 += u1 < carry
    borrow = l0 < s0
    w1 = l1 - s1
    w2 = l2 - (l1 < s1)
    w2 -= w1 < borrow
    w1 -= borrow
    shift_l = _U(64) - shift_r
    vr = (l1 >> shift_r) | (l2 << shift_l)
    vp = (u1 >> shift_r) | (u2 << shift_l)
    vm = (w1 >> shift_r) | (w2 << shift_l)

    vr_tz = (mv & tz) == 0
    vm_tz = np.zeros(len(mag), dtype=bool)
    if kind.any():
        i = np.flatnonzero(kind == 1)
        m, p5, ev = mv[i], tz[i], even[i]
        by5 = m % _U(5) == 0
        vr_tz[i] = by5 & (m % p5 == 0)
        vm_tz[i] = ~by5 & ev & ((m - _U(1) - mm_shift[i]) % p5 == 0)
        vp[i] -= ~by5 & ~ev & ((m + _U(2)) % p5 == 0)
        i = np.flatnonzero(kind == 2)
        vm_tz[i] = even[i] & mm_shift[i]
        vp[i] -= ~even[i]

    # removed: the most digits r with vp // 10^r > vm // 10^r, at most 3
    # for most values; the rest count on.
    a, b = vp // _TEN, vm // _TEN
    removed = (a > b).astype(np.intp)
    for _ in range(2):
        a //= _TEN
        b //= _TEN
        more = a > b
        removed += more
    i = np.flatnonzero(more)
    a, b = a[i], b[i]
    while i.size:
        a //= _TEN
        b //= _TEN
        go = a > b
        a, b, i = a[go], b[go], i[go]
        removed[i] += 1
    # vr loses its last `removed` digits, the last of them kept as `last`;
    # vr_tz stays true if the others were all zero, vm_tz if all of vm's were.
    below = pow10[np.maximum(removed - 1, 0)]
    vr_below = vr // below
    vr_tz &= vr == vr_below * below
    vr = vr_below // _TEN
    last = vr_below - vr * _TEN
    kept = removed == 0
    vr[kept], last[kept] = vr_below[kept], 0
    div = pow10[removed]
    vm_div = vm // div
    vm_tz &= vm == vm_div * div
    vm = vm_div

    # Where vm's removed digits were all zero, remove its trailing zeros too.
    i = np.flatnonzero(vm_tz)
    while i.size:
        i = i[vm[i] % _TEN == 0]
        vr_tz[i] &= last[i] == 0
        last[i] = vr[i] % _TEN
        vr[i] //= _TEN
        vm[i] //= _TEN
        removed[i] += 1

    tie = vr_tz & (last == 5) & ((vr & _U(1)) == 0)  # rounds to even
    vr += ((last >= 5) & ~tie) | ((vm == vr) & ~(even & vm_tz))
    return vr, e10[biased] + removed


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 as ASCII in a uint64, the first in the low byte."""
    hi = v // _U(10000)
    x = hi | ((v - hi * _U(10000)) << _U(32))  # two 4-digit lanes
    top = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # lane // 100
    x = top | ((x - top * _U(100)) << _U(16))  # four 2-digit lanes
    top = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10
    return top | ((x - top * _TEN) << _U(8)) | _U(0x3030303030303030)


def _later(words: np.ndarray, bits) -> np.ndarray:
    """Byte strings held little-endian in the three rows of words, moved bits (0..64) later."""
    out = words << bits
    out[1:] |= words[:-1] >> (_U(64) - bits)
    return out


def fields(values) -> np.ndarray:
    """The bytes of repr(float(v)) of every value, NUL-padded to WIDTH.

    Returns uint8 of shape values.shape + (WIDTH,).  ValueError for a value
    that is not finite.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("only finite values have a shortest round-trip text")
    bits = x.reshape(-1).view(np.uint64)
    _, _, pow10, shift, keep, drop, const, size, head = _tables()
    mag = bits & _U(2**63 - 1)
    zero = mag == 0
    mag[zero] = _ONE_BITS
    digits, e = _decimal(mag)
    digits[zero], e[zero] = 0, 0
    length = np.searchsorted(pow10[1:17], digits, side="right") + 1
    sci = e + length - 1
    exponential = (sci < -4) | (sci > 15)
    neg = (bits >> _U(63)).astype(np.intp)
    # The layout; an exponential value's is that of its mantissa d.ddd
    # (decimal exponent 0), which drops a trailing ".0" and gains the
    # exponent below.
    layout = np.where(exponential, 4, sci + 4) + _POSITIONAL * neg

    # The 17 digits, left aligned (a zero has 17 zeros), in three words,
    # moved after the constant bytes, with a byte's room for the point.
    left = digits * pow10[17 - length]
    top8 = left // _U(10**9)
    low9 = left - top8 * _U(10**9)
    mid8 = low9 // _TEN
    words = np.empty((3, len(bits)), dtype=np.uint64)
    words[:2] = _ascii8(np.stack([top8, mid8]))
    words[2] = (low9 - mid8 * _TEN) | _U(0x30)
    words = _later(words, shift[layout])
    words = (words & np.take(keep, layout, axis=1)) | (_later(words, _U(8)) & np.take(drop, layout, axis=1))
    words |= np.take(const, layout, axis=1)
    words &= np.take(size, 17 * layout + length - 1, axis=1)

    i = np.flatnonzero(exponential)
    if i.size:
        # "e", the exponent's sign and two or three digits, after the
        # digits and the point, which only a second digit keeps.
        at = neg[i] + length[i] + (length[i] > 1)
        words[:, i] &= np.take(head, at, axis=1)
        a = np.abs(sci[i])
        h, t, o = a // 100, a // 10 % 10, a % 10
        text = np.where(a >= 100, h | (t << 8) | (o << 16) | 0x303030, t | (o << 8) | 0x3030)
        text = (0x65 | (np.where(sci[i] < 0, 0x2D, 0x2B) << 8) | (text << 16)).astype(np.uint64)
        tail = np.where(at // 8 == np.arange(3)[:, None], text, _U(0))
        words[:, i] |= _later(tail, (at % 8).astype(np.uint64) << _U(3))

    return np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8).reshape(x.shape + (WIDTH,))


def csv_rows(cells: np.ndarray) -> bytes:
    """CSV text of a (rows, columns, WIDTH) table of fields: "," between fields, "\\n" after a row."""
    rows, columns, _ = cells.shape
    buf = np.empty((rows, columns, WIDTH + 1), dtype=np.uint8)
    buf[..., :WIDTH] = cells
    buf[..., WIDTH] = ord(",")
    buf[:, -1, WIDTH] = ord("\n")
    return buf[buf != 0].tobytes()
