"""File formats: grid-field CSV, residual reports, frame fields, meshes.

All writers produce deterministic bytes: fixed float formatting
(scientific, 17 significant digits), fixed row order (row-major, v
fastest), sorted keys in JSON summaries.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import warnings

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .grids import Grid

FLOAT_FMT = "%.16e"

# ---------------------------------------------------------------------------
# exact vectorised FLOAT_FMT, written and read
#
# A float x = +-a is written as the 17 digits of D = round(a * 10**(16 - E))
# and the exponent E.  The product is formed as a double-double with
# Dekker's error-free split and product against an exact (hi, lo) table of
# 10**k, so D is proven only where the fraction is not within the error
# bound (< 5e-15) of 1/2; an exact tie can only be told apart when 10**k
# is exact (lo == 0), and is then rounded half to even as % does.  The
# reader forms D * 10**(E - 16) the same way and takes the double nearest
# to it, proven only where that is not within the error bound of a tie;
# the numbers it cannot prove it reads with float().

_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitting constant
# powers 10**k in the table: the writer needs k in [-234, 267] for |x| in
# (1e-250, 1e250), the reader k in [-265, 233] for |E| <= 249
_K_MIN, _K_MAX = -265, 270


def _split(x):
    """(hi, lo) with x = hi + lo exactly and hi of at most 26 bits."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


def _pow10_table():
    """10**k for k in [_K_MIN, _K_MAX] as the rows hi, split(hi) and lo,
    where hi and lo are 10**k and 10**k - hi correctly rounded (exact
    integer ratios; Python's int division rounds correctly)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return np.stack([hi, *_split(hi), np.array(lo)])


# one (4, N) table, gathered by one take whose four rows are contiguous
_POW10 = _pow10_table()
# ASCII of 00..99, little-endian: the tens digit is the first byte
_PAIRS = np.array([(0x30 + i // 10) | (0x30 + i % 10) << 8 for i in range(100)], "<u2")
# ASCII of 0000..9999, little-endian: the first digit is the lowest byte
_QUADS = np.array([int.from_bytes(b"%04d" % i, "little") for i in range(10000)], "<u4")
# the last three words of a cell for each exponent E in [-_E_MAX, _E_MAX],
# [e|exponent sign] [hundreds|NUL] [pair], as the low 48 bits of one
# little-endian uint64; formatted values have |E| <= 250
_E_MAX = 250
_EXPONENTS = np.array([[ord("e") | ord("-" if e < 0 else "+") << 8,
                        0x30 + abs(e) // 100 if abs(e) >= 100 else 0,
                        _PAIRS[abs(e) % 100], 0] for e in range(-_E_MAX, _E_MAX + 1)],
                      "<u2").view("<u8").ravel()
_E16, _E17 = np.int64(10**16), np.int64(10**17)


def _scaled(a, k):
    """(p, r, hi, lo): a * 10**k == p + r up to about 2**-100 * p, for
    positive doubles a and the table's 10**k ~ hi + lo."""
    hi, hh, hl, lo = np.take(_POW10, k - np.int64(_K_MIN), axis=1)
    p = a * hi                      # p + e == a * hi exactly
    ah, al = _split(a)
    e = ah * hh - p
    e += ah * hl
    e += al * hh
    e += al * hl
    return p, e + a * lo, hi, lo


def _round_scaled(a, E):
    """(D, below, unsure): D = a * 10**(16 - E) rounded half to even, where
    the exact product is below 1e16, and the indices where the rounding is
    unproven."""
    p, r, _, lo = _scaled(a, np.int64(16) - E)     # p >= 2**53 is an integer
    f = np.floor(r)
    D = p.astype(np.int64) + f.astype(np.int64)
    half = r - f                                    # the fraction, less 1/2
    half -= 0.5
    D += half > 0.0
    # ties and near-ties are rare: their masks are built on those alone
    near = np.flatnonzero(np.abs(half) < 1e-12)
    exact = lo[near] == 0.0
    tie = near[exact & (half[near] == 0.0)]
    D[tie] += np.bitwise_and(D[tie], np.int64(1))
    return D, (p - 1e16) + r < 0, near[~exact]


def _cells(x):
    """``FLOAT_FMT % v`` for each v of the float64 vector ``x``, as 13
    little-endian uint16 words a value with NUL for every absent byte:
    [NUL|sign] [digit|.] 4 x [four digits, two words] [e|exponent sign]
    [hundreds|NUL] [pair].  The digits come from the four-digit table
    ``_QUADS`` and the three exponent words from one lookup in
    ``_EXPONENTS``.  The few values whose bytes this is not proven to get
    exact (non-finite values, |v| outside (1e-250, 1e250), a rounding
    within the error bound of a tie, an exponent guess the second pass
    does not fix) are formatted with ``%`` one by one in place, as NUL and
    then their bytes, NUL-padded: the low byte of the first word stays
    free for a separator either way.  The writers call it on one block at
    a time, at most ``_BLOCK_VALUES`` values (more only for a single u row
    wider than that); the (n, 13) result takes 26 bytes a value."""
    a = np.abs(x)
    zero = a == 0
    percent = np.flatnonzero(~(zero | ((a > 1e-250) & (a < 1e250))))
    a[zero] = 1.0
    a[percent] = 1.0                                # formatted by % below
    E = np.floor(np.log10(a)).astype(np.int64)      # off by at most one
    D, below, unsure = _round_scaled(a, E)
    fix = np.flatnonzero(below | (D > _E17))
    if len(fix):
        E[fix] += np.where(below[fix], np.int64(-1), np.int64(1))
        D[fix], below, unsure_fixed = _round_scaled(a[fix], E[fix])
        unsure = np.concatenate([np.setdiff1d(unsure, fix), fix[unsure_fixed],
                                 fix[below | (D[fix] > _E17)]])
    percent = np.concatenate([percent, unsure])
    carry = np.flatnonzero(D == _E17)               # 9.99..95 rounds up to 1.0e(E+1)
    D[carry] = _E16
    E[carry] += np.int64(1)
    D[zero] = 0
    E[zero] = 0
    cell = np.empty((len(x), 13), "<u2")
    cell[:, 0] = np.signbit(x) * np.uint16(ord("-") << 8)
    lead_digit = D // _E16
    cell[:, 1] = lead_digit.astype(np.uint16) + np.uint16(ord(".") << 8 | 0x30)
    rest = D - lead_digit * _E16
    upper = rest // np.int64(10**8)
    quads = cell[:, 2:10].view("<u4")
    for col, half in ((0, upper), (2, rest - upper * np.int64(10**8))):
        half = half.astype(np.uint32)
        q = half // np.uint32(10000)
        quads[:, col] = np.take(_QUADS, q)
        quads[:, col + 1] = np.take(_QUADS, half - q * np.uint32(10000))
    exponent = np.take(_EXPONENTS, E + np.int64(_E_MAX))
    cell[:, 10] = exponent                          # the uint16 column keeps the low word
    cell[:, 11:].view("<u4")[:, 0] = exponent >> np.uint64(16)
    if len(percent):
        text = b"".join((b"\0" + (FLOAT_FMT % v).encode()).ljust(26, b"\0")
                        for v in x[percent].tolist())
        cell[percent] = np.frombuffer(text, "<u2").reshape(-1, 13)
    return cell


def _lines(parts, sep: str, lead: str = "") -> bytes:
    """The bytes of ``lead + sep.join(cells) + "\\n"`` for each line, where
    each of ``parts`` holds :func:`_cells` words shaped (..., k, 13), its
    leading axes broadcast to the lines' shape, and a line's cells are the
    k cells of each part in turn.  A block of grid CSV lines is [u cells
    (rows, 1, 1, 13), v cells (nv, 1, 13), value cells (rows, nv, k, 13)].
    The line buffer is viewed as (lines..., cells, 13) words, with the lead
    before and "\\n\\0" after each line."""
    shape = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
    w = sum(p.shape[-2] for p in parts)
    lead = np.array(bytearray((lead + "\0" * (len(lead) % 2)).encode()), np.uint8).view("<u2")
    buf = bytearray(2 * math.prod(shape) * (len(lead) + 13 * w + 1))
    words = np.frombuffer(buf, "<u2").reshape(shape + (len(lead) + 13 * w + 1,))
    words[..., :len(lead)] = lead
    words[..., -1] = np.uint16(0x0A)
    body = words[..., len(lead):-1].reshape(shape + (w, 13))
    k = 0
    for p in parts:
        body[..., k:k + p.shape[-2], :] = p
        k += p.shape[-2]
    body[..., 1:, 0] += np.uint16(ord(sep))
    return buf.translate(None, b"\0")


def _format_ints(m, sep: str, lead: str = ""):
    """The bytes of ``lead + sep.join(map(str, row)) + "\\n"`` for each row
    of the (rows, w) matrix ``m`` of non-negative integers."""
    rows, w = m.shape
    m = m.astype(np.int64)
    width = 2 * ((len(str(int(m.max()))) + 1) // 2)     # digits a value, even
    pairs = np.empty((rows, w, width // 2), "<u2")
    q = m
    for c in range(width // 2 - 1, -1, -1):
        r = q // np.int64(100)
        pairs[..., c] = np.take(_PAIRS, q - r * np.int64(100))
        q = r
    digits = pairs.view(np.uint8)
    # NUL for the leading zeros of each value, keeping its last digit
    zeros = np.full(m.shape, width - 1)
    for i in range(1, width):
        zeros -= m >= np.int64(10**i)
    digits[np.arange(width) < zeros[..., None]] = 0
    line = np.zeros((rows, len(lead) + w * (1 + width) + 1), np.uint8)
    line[:, :len(lead)] = np.frombuffer(lead.encode(), np.uint8)
    line[:, -1] = 0x0A
    body = line[:, len(lead):-1].reshape(rows, w, 1 + width)
    body[:, 1:, 0] = ord(sep)
    body[:, :, 1:] = digits
    return line.tobytes().translate(None, b"\0")


# numbers formatted at a time: bounds the writers' memory (a block is whole
# u rows, so a u row of more values is a block of its own)
_BLOCK_VALUES = 32768


@functools.lru_cache(maxsize=8)
def _grid_cells(grid: Grid):
    """(u cells, v cells): the (nu, 13) and (nv, 13) read-only cells of the
    grid's coordinates (see :func:`_cells`), from one kernel call on their
    nu + nv values, 26 (nu + nv) bytes.  Memoised on the frozen grid for
    the last 8 grids: equal grids have the same coordinates bit for bit,
    and a residual report writes many fields on one grid."""
    cells = _cells(np.concatenate([grid.u, grid.v]))
    cells.flags.writeable = False
    return cells[:grid.nu], cells[grid.nu:]


def _write_rows(f, table, sep: str = ",", lead: str = "", grid: Grid = None) -> None:
    """Write one line ``lead + sep.join(FLOAT_FMT % x ...) + "\\n"`` per
    point of the (nu, nv, ...) ``table`` to the binary file ``f``, row-major
    with v fastest: the point's u and v first when a ``grid`` is given
    (their cells from :func:`_grid_cells`, formatted once per grid), then
    its values flattened.  The lines are written in blocks of whole u rows
    (:func:`_lines`), ``max(1, _BLOCK_VALUES // (w * nv))`` rows of w
    values a point, each from one :func:`_cells` call on its own rows alone
    (copied only where the table is not contiguous float64), so a block
    holds at most ``_BLOCK_VALUES`` values unless a single u row holds
    more: then each block is one row of w * nv values, and the block's
    memory grows with it."""
    nu, nv = table.shape[:2]
    k = math.prod(table.shape[2:])
    coords = () if grid is None else _grid_cells(grid)
    # (an empty mesh has nv = 0)
    step = max(1, _BLOCK_VALUES // max(1, (len(coords) + k) * nv))
    for i in range(0, nu, step):
        rows = np.asarray(table[i:i + step], np.float64)
        cells = _cells(rows.ravel()).reshape(len(rows), nv, k, 13)
        heads = [coords[0][i:i + step, None, None], coords[1][:, None]] if coords else []
        f.write(_lines(heads + [cells], sep, lead))


def write_field_csv(path, grid: Grid, name: str, values: np.ndarray) -> None:
    """One scalar field as CSV with header ``u,v,<name>``.

    Complex fields are written as a ``<name>_re,<name>_im`` column pair.
    """
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise DimensionMismatch(f"field shape {values.shape} != grid {grid.shape}")
    if np.iscomplexobj(values):
        header = f"u,v,{name}_re,{name}_im"
        # the (re, im) pairs of complex128, one row per grid point
        table = np.ascontiguousarray(values, dtype=complex).view(float).reshape(grid.shape + (2,))
    else:
        header = f"u,v,{name}"
        table = values[..., None]
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        _write_rows(f, table, grid=grid)


# the reader's words: eight bytes of the file as one little-endian uint64,
# the first byte lowest
_ZEROS = np.uint64(0x3030303030303030)            # "00000000"
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_READ_CHUNK = 1 << 18   # bytes parsed at a time, give or take half (see _read_layout): bounds memory
# the writers' non-finite tokens, whole between separators, and the layout's
# token that stands in for each while the kernel parses its block
_NON_FINITE = re.compile(rb"(?<![^,\n])-?(?:nan|inf)(?=[,\n])")
_STAND_IN = b"0.0000000000000000e+00"


def _not_digits(w):
    """Nonzero where a byte of the word w is not an ASCII digit."""
    return ((w & _NIBBLES) ^ _ZEROS) | (((w + _SIXES) & _NIBBLES) ^ _ZEROS)


def _eight_digits(w):
    """The number written by the eight ASCII digits of the word w."""
    w = w - _ZEROS
    w = (w * np.uint64(10) + (w >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    w = (w * np.uint64(100) + (w >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    return (w * np.uint64(10000) + (w >> np.uint64(32))) & np.uint64(0xFFFFFFFF)


def _token_ends(b):
    """Offsets of the "," and "\\n" bytes of the byte array b, a whole
    number of 8-byte words followed by one more."""
    # "," and "\n" are the bytes c of the layout with c ^ 12 < 33.  They are
    # at least 23 bytes apart, so a word flags at most one (where it flags
    # more, the lower ones fall inside a token, whose bytes are all checked)
    flags = ((b[:-8] ^ np.uint8(12)) < np.uint8(33)).view("<u8")
    w = np.flatnonzero(flags)
    return 8 * w + (np.frexp(flags[w].astype(np.float64))[1] - 1) // 8


def _read_tokens(b, starts, ends):
    """(D, E, minus) of the tokens b[starts[i]:ends[i]], each in the layout
    [-]d.dddddddddddddddde+dd[d] (or e-): its 17 digits as one integer,
    its exponent and its sign; None where a byte is off the layout."""
    minus = b[starts] == ord("-")
    s = starts + minus
    three = ends - s == 23                          # a three-digit exponent
    if not np.all(three | (ends - s == 22)):
        return None
    word = np.ndarray((len(b) - 7,), "<u8", b, strides=(1,))    # word[i]: bytes i..i+7
    head, hi, lo, ex = (word[s + np.int64(i)] for i in (0, 2, 10, 18))
    first = (head & np.uint64(0xFFFF)) - np.uint64(ord(".") << 8 | ord("0"))
    exp_sign = ex & np.uint64(0xFFFF)
    negative = exp_sign == np.uint64(ord("-") << 8 | ord("e"))
    # the exponent's digits as the last bytes of a word of "0"s
    digits = ex >> np.uint64(16)
    exp_word = np.where(three,
                        (digits & np.uint64(0xFFFFFF)) << np.uint64(40) | np.uint64(0x3030303030),
                        (digits & np.uint64(0xFFFF)) << np.uint64(48) | np.uint64(0x303030303030))
    if (np.any(first > np.uint64(9))
            or not np.all(negative | (exp_sign == np.uint64(ord("+") << 8 | ord("e"))))
            or np.any(_not_digits(hi) | _not_digits(lo) | _not_digits(exp_word))):
        return None
    D = (first * np.uint64(10**16) + _eight_digits(hi) * np.uint64(10**8)
         + _eight_digits(lo)).astype(np.int64)
    E = _eight_digits(exp_word).astype(np.int64)
    return D, np.where(negative, -E, E), minus


def _nearest_doubles(D, E):
    """(x, unsure): the doubles x nearest D * 10**(E - 16), and the indices
    where x is not proven, within the error bound of a tie."""
    a = D.astype(np.float64)                        # |D - a| <= 8, exactly
    p, r, hi10, _ = _scaled(a, E - np.int64(16))
    r += (D - a.astype(np.int64)).astype(np.float64) * hi10
    x = p + r
    t = r - (x - p)                                 # x + t == p + r exactly
    # x is the double nearest D * 10**(E - 16) unless p + r is within the
    # error bound (below 2**-100 * x; 2**-89 * x leaves a margin) of a
    # midpoint between x and a neighbour
    below = x - (x.view(np.int64) - np.int64(1)).view(np.float64)   # NaN for x = 0, which is exact
    return x, np.flatnonzero(2.0 * np.abs(t) + x * 2.0**-89 >= below)


def _stand_ins(block: bytes, n: int):
    """``block[:n]`` with each nan, inf and -inf token swapped for
    ``_STAND_IN``, and the offsets and bytes of the tokens swapped."""
    parts, offsets, tokens, last, shift = [], [], [], 0, 0
    for m in _NON_FINITE.finditer(block, 0, n):
        parts += (block[last:m.start()], _STAND_IN)
        offsets.append(m.start() + shift)
        tokens.append(m.group())
        shift += len(_STAND_IN) - len(tokens[-1])
        last = m.end()
    parts.append(block[last:n])
    return b"".join(parts), offsets, tokens


def _parse_block(block: bytes, n: int, width: int):
    """The numbers of ``block[:n]``, whole lines of ``width`` FLOAT_FMT
    numbers joined by "," (the writers' layout), exactly as float() reads
    them; None where a byte is outside that layout.  The few numbers the
    kernel does not cover (nan, inf and -inf, which a stand-in of the
    layout replaces while it parses, or an exponent beyond 249 in
    magnitude: |x| < 1e-249, subnormals included, or >= 1e250) or cannot
    prove (within the error bound of a tie) are read by float() one by one
    in place."""
    offsets = tokens = ()
    if block.find(b"n", 0, n) >= 0:                 # no byte of a finite number
        block, offsets, tokens = _stand_ins(block, n)
        n = len(block)
    size = -(-n // 8) * 8
    b = np.full(size + 8, ord("0"), np.uint8)       # padded to whole words, and past the last
    b[:n] = np.frombuffer(block, np.uint8, n)
    ends = _token_ends(b)
    if len(ends) % width or np.any(b[ends].reshape(-1, width)
                                   != np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    parsed = _read_tokens(b, starts, ends)
    if parsed is None:
        return None
    D, E, minus = parsed
    far = np.flatnonzero(np.abs(E) > np.int64(249))
    E[far] = 0                                      # inside the table; read by float() below
    x, unsure = _nearest_doubles(D, E)
    x = (x.view(np.uint64) | minus.astype(np.uint64) << np.uint64(63)).view(np.float64)   # set the sign bit
    for i in np.concatenate([far, unsure]).tolist():
        x[i] = float(block[starts[i]:ends[i]])
    for i, token in zip(np.searchsorted(starts, offsets).tolist(), tokens):
        x[i] = float(token)
    return x.reshape(-1, width)


def _read_layout(f, width: int):
    """The (lines, width) numbers of the rest of the binary file ``f``,
    parsed by :func:`_parse_block` a chunk of whole lines at a time, or
    None where it declines any chunk, a line lacks its "\\n" or there is
    no line.  The chunks are ``max(1, round(left / _READ_CHUNK))``
    near-equal reads of the file's ``left`` bytes, each at most 1.5
    ``_READ_CHUNK`` (and the part line carried over from the last), so no
    file ends in a chunk of a few lines."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    size = -(-left // max(1, round(left / _READ_CHUNK)))
    # a line of finite numbers holds at least 23 bytes a number; rows never
    # filled are never touched
    out = np.empty((left // (23 * width), width))
    n, rest = 0, b""
    while data := f.read(size):
        block = rest + data
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        if cut:
            rows = _parse_block(block, cut, width)
            if rows is None:
                return None
            if n + len(rows) > len(out):            # short lines of nan or inf tokens
                out = np.concatenate([out[:n], np.empty((max(n, len(rows)), width))])
            out[n:n + len(rows)] = rows
            n += len(rows)
    return None if rest or not n else out[:n]


def _read_written(path, parse_header):
    """(columns, meta, rows) of a grid CSV in the writers' exact layout, or
    None for any other file: a header line that is not UTF-8, holds a
    "\\r" or fails ``parse_header``, or data :func:`_read_layout` declines.
    It raises no ConfigError: every fault of a file is named by
    :func:`_read_loadtxt` alone."""
    with open(path, "rb") as f:
        head = f.readline()
        if not head.endswith(b"\n") or b"\r" in head:
            return None
        try:
            cols = head.decode("utf-8").strip().split(",")
            meta = parse_header(cols)
        except (UnicodeDecodeError, ConfigError):
            return None
        rows = _read_layout(f, len(cols))
    return None if rows is None else (cols, meta, rows)


def _read_loadtxt(path, parse_header):
    """(columns, meta, rows) of any grid CSV, with np.loadtxt; every fault
    of the file raises a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cols = f.readline().strip().split(",")
            meta = parse_header(cols)
            with warnings.catch_warnings():
                # loadtxt only warns on a file without data lines
                warnings.simplefilter("error", UserWarning)
                rows = np.loadtxt(f, delimiter=",", ndmin=2)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable numeric data ({exc})") from exc
    except UserWarning as exc:
        raise ConfigError(f"{path}: no data lines after the header") from exc
    return cols, meta, rows


def _read_grid_csv(path, parse_header):
    """Inverse of the grid CSV writers: (grid, meta, rows), where ``meta =
    parse_header(columns)`` vets the header before the data is read and
    ``rows`` holds one line ``u,v,...`` per grid point.  Only u and v must
    be finite, so every file a writer writes reads back, NaN residuals
    included; the inputs that need finite values check them.  A file in
    the writers' layout is parsed in chunks by :func:`_read_written`; any
    other file goes through np.loadtxt."""
    cols, meta, rows = _read_written(path, parse_header) or _read_loadtxt(path, parse_header)
    if rows.shape[1] != len(cols):
        raise ConfigError(f"{path}: row width {rows.shape[1]} != header width {len(cols)}")
    if not np.all(np.isfinite(rows[:, :2])):
        raise ConfigError(f"{path}: grid coordinates contain non-finite values")
    return _grid_from_columns(rows[:, 0], rows[:, 1], path), meta, rows


def read_field_csv(path):
    """Inverse of :func:`write_field_csv`; returns (grid, name, values)."""

    def name_of(cols):
        if cols[:2] != ["u", "v"] or len(cols) not in (3, 4):
            raise ConfigError(f"{path}: expected header 'u,v,<name>', got {','.join(cols)!r}")
        if len(cols) == 3:
            return cols[2]
        if not (cols[2].endswith("_re") and cols[3].endswith("_im")):
            raise ConfigError(f"{path}: complex header needs _re/_im columns")
        return cols[2][:-3]

    grid, name, rows = _read_grid_csv(path, name_of)
    # the _re, _im pair as one complex, bit for bit (re + 1j * im would turn
    # an infinite im into a NaN re, and a -0.0 re into 0.0)
    vals = np.ascontiguousarray(rows[:, 2:]).view(complex) if rows.shape[1] == 4 else rows[:, 2]
    return grid, name, vals.reshape(grid.shape)


def _grid_from_columns(u, v, path):
    """Recover the Grid from flattened u, v columns (row-major, v fastest).

    The origin is the first row, each count the number of rows sharing the
    first row's coordinate on the other axis, and each step the span of its
    axis over the count less one, all from the unrounded values, so a file
    a writer wrote gives back the grid it was written on."""
    nu, nv = np.count_nonzero(v == v[0]), np.count_nonzero(u == u[0])
    if nu * nv != len(u):
        raise ConfigError(f"{path}: points do not form a rectangular grid")
    if nu < 3 or nv < 3:
        raise ConfigError(f"{path}: grid needs at least 3 points per axis")
    du = (u[-1] - u[0]) / (nu - 1)
    dv = (v[-1] - v[0]) / (nv - 1)
    if du > 0 and dv > 0:
        # each u value appears nv times and each v value nu times, in any order
        if (np.max(np.abs(np.diff(np.sort(u)[::nv]) - du)) > 1e-9 * max(1.0, du)
                or np.max(np.abs(np.diff(np.sort(v)[::nu]) - dv)) > 1e-9 * max(1.0, dv)):
            raise ConfigError(f"{path}: grid spacing is not uniform")
        grid = Grid(float(u[0]), float(v[0]), float(du), float(dv), nu, nv)
        U, V = grid.mesh()
        if (np.max(np.abs(u.reshape(grid.shape) - U)) <= 1e-9
                and np.max(np.abs(v.reshape(grid.shape) - V)) <= 1e-9):
            return grid
    raise ConfigError(f"{path}: rows are not in row-major order (v fastest)")


def write_residual_report(out_dir, name: str, grid: Grid, residuals: dict) -> dict:
    """Per-equation residual CSVs plus a JSON summary.

    ``residuals`` maps equation label -> residual field.  The summary
    records max, mean of |r| and the argmax grid index per equation, and
    is returned as well as written to ``<name>_summary.json``.
    """
    summary = {}
    for label in sorted(residuals):
        r = np.abs(residuals[label])
        write_field_csv(os.path.join(out_dir, f"{name}_{label}.csv"),
                        grid, label, residuals[label])
        loc = np.unravel_index(int(np.argmax(r)), r.shape)
        summary[label] = {
            "max": float(np.max(r)),
            "mean": float(np.mean(r)),
            "argmax": [int(loc[0]), int(loc[1])],
        }
    with open(os.path.join(out_dir, f"{name}_summary.json"), "w",
              encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


_FRAME_COLS = ("T1", "T2", "N1", "N2", "F")


def write_frames_csv(path, grid: Grid, frames: np.ndarray) -> None:
    """Frame field as CSV: columns u,v then T1_0..F_{n-1} (n = ambient dim)."""
    frames = np.asarray(frames, dtype=float)
    if (frames.ndim != 4 or frames.shape[:2] != grid.shape or frames.shape[2] not in (4, 5)
            or frames.shape[3] != 5):
        raise DimensionMismatch(f"frames shape {frames.shape} is not {grid.shape} + (n, 5) "
                                "with n in (4, 5)")
    names = [f"{c}_{k}" for c in _FRAME_COLS for k in range(frames.shape[2])]
    with open(path, "wb") as f:
        f.write(("u,v," + ",".join(names)).encode("utf-8") + b"\n")
        # columns run over the frame vector c, then its ambient component k
        _write_rows(f, np.swapaxes(frames, 2, 3), grid=grid)


def read_frames_csv(path):
    """Inverse of :func:`write_frames_csv`; returns (grid, frames)."""

    def dimension_of(cols):
        if cols[:2] != ["u", "v"] or (len(cols) - 2) % 5 != 0:
            raise ConfigError(f"{path}: malformed frame-field header")
        n = (len(cols) - 2) // 5
        if n not in (4, 5):
            raise ConfigError(f"{path}: ambient dimension {n} not in (4, 5)")
        return n

    grid, n, rows = _read_grid_csv(path, dimension_of)
    frames = rows[:, 2:].reshape(grid.nu, grid.nv, 5, n)
    return grid, np.moveaxis(frames, 2, 3).copy()


def write_obj_mesh(path, points: np.ndarray) -> None:
    """Quad mesh over the grid of 3-space points, Wavefront OBJ layout."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 3:
        raise DimensionMismatch("mesh points must have shape (nu, nv, 3)")
    nu, nv = points.shape[:2]
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(1, nv)).ravel()
    faces = np.stack([a, a + 1, a + nv + 1, a + nv], axis=1)
    with open(path, "wb") as f:
        _write_rows(f, points, sep=" ", lead="v ")
        step = max(1, _BLOCK_VALUES // 4)
        for i in range(0, len(faces), step):
            f.write(_format_ints(faces[i:i + step], " ", "f "))
