"""The SSA path CSV, formatted in numpy blocks with the bytes of ``repr``
for each time and of ``str`` for each count.

:func:`shortest_digits` finds ``repr``'s shortest round-trip digits for a
whole array of times with exact double-double arithmetic; :func:`csv_rows`
lays one block of rows out in a uint8 matrix.  ``JumpTrajectory.to_csv``
imports this module on its first call, so ``import crnkit`` does not
compile it or build its tables.
"""

import numpy as np

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_EXACT10 = np.array([float(10**i) for i in range(21)])  # 10^0 .. 10^20, each an exact double
_EPS = 1e-6  # scaled times this close to a tie or to a rounding-interval edge go to repr
_FILLER = 0.30000000000000004  # stands in for the times that go to repr; any easy time would do
# _QUADS[v]: the 4 ASCII digits of v < 10000 as one uint32
_QUADS = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_QUADS = (_QUADS % 10 + 48).astype(np.uint8).view(np.uint32).ravel()


def _split(a):
    """Veltkamp's split: ``a == hi + lo``, each half of at most 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_EXACT10_HI, _EXACT10_LO = _split(_EXACT10)


def shortest_digits(x):
    """``repr``'s digits of each float in ``x``, as (m, s, decimals, easy).

    Where ``easy`` holds, ``repr(x)`` is m / 10**s in fixed point with
    ``decimals`` digits after the point (the fraction's trailing zeros
    dropped, one digit kept): the int64 m is the shortest decimal that
    rounds back to x, nearest x among those, scaled by 10**s into about
    [1e16, 1e17).  ``easy`` holds for x in [1e-4, 1e16) that is no power
    of two (whose rounding interval is lopsided) and lies more than
    ``_EPS`` (scaled) from a tie or from an edge of its interval.

    V = x 10^s is held exactly as an int64 g plus a float f in [-1/2, 1/2]
    (a Dekker product with the exact double 10^s), and h, half an ulp of x
    times 10^s, is exact too; h lies in (0.55, 11.2).  A multiple of 10^r
    within h of V rounds back to x, so the shortest digits end at the
    largest such r and take the multiple nearest V.  r = 0 always
    qualifies.  At r >= 2 the distance is that of r = 2 or else above 88,
    and a tie cannot be within h, so the multiple of 100 nearest V is the
    answer whenever it lies within h.  Each distance is an int64 below 100
    plus f, so no float above 2^53 is compared.
    """
    bits = x.view(np.int64)
    easy = (x >= 1e-4) & (x < 1e16) & (bits & (2**52 - 1) != 0)
    if not easy.all():
        x = np.where(easy, x, _FILLER)
        bits = x.view(np.int64)
    s = 16 - np.clip((np.log10(x) + 5).astype(np.int64) - 5, -4, 15)
    p = x * _EXACT10[s]
    xh, xl = _split(x)
    ph, pl = _EXACT10_HI[s], _EXACT10_LO[s]
    e = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl  # V == p + e, exactly
    half = (((bits >> 52) - 53) << 52).view(np.float64) * _EXACT10[s]  # 2^(E - 53) 10^s
    whole = np.rint(e)
    g = p.astype(np.int64) + whole.astype(np.int64)
    f = e - whole  # V - g, exact (Sterbenz)
    q1, q2 = g // 10, g // 100
    down1, down2 = (g - q1 * 10) + f, (g - q2 * 100) + f  # V above the multiple at or below g
    up1, up2 = 10 - down1, 100 - down2
    near1, near2 = np.minimum(down1, up1), np.minimum(down2, up2)
    in1, in2 = near1 < half, near2 < half
    easy &= (np.abs(near1 - half) > _EPS) & (np.abs(near2 - half) > _EPS)
    easy &= in1 | (np.abs(f) < 0.5 - _EPS)  # a tie at the last level inside
    easy &= ~in1 | in2 | (np.abs(down1 - 5) > _EPS)
    m = np.where(in1, (q1 + (up1 < down1)) * 10, g)
    np.copyto(m, (q2 + (up2 < down2)) * 100, where=in2)
    decimals = s - in1 - in2  # m ends in no zero, in one, or in two and more
    lanes = np.flatnonzero(in2 & easy)
    q = m[lanes] // 100
    while lanes.size:
        q, rest = q // 10, q
        more = rest == q * 10
        lanes, q = lanes[more], q[more]
        decimals[lanes] -= 1
    return m, s, np.maximum(decimals, 1), easy


def _ascii_digits(values, width: int):
    """The last ``width`` decimal digits of each non-negative integer in
    ``values``, as an (n, width) uint8 array of ASCII; ``values`` must be
    below 10**(4 ceil(width / 4))."""
    count = -(-width // 4)
    out = np.empty((len(values), count), dtype=np.uint32)
    for j in range(count - 1, 0, -1):
        q = values // 10000
        out[:, j] = _QUADS[values - q * 10000]
        values = q
    out[:, 0] = _QUADS[values]
    return out.view(np.uint8)[:, 4 * count - width :]


def _keep_digits(keep, values, width: int):
    """Mark in ``keep``, an (n, width) view, the digits of each non-negative
    integer in ``values`` right-aligned in ``width`` columns: all but its
    leading zeros, and the last column for 0."""
    for j in range(width - 1):
        np.greater_equal(values, 10 ** (width - 1 - j), out=keep[:, j])


def csv_rows(times, states) -> str:
    """The CSV rows of one block, ``repr(t),str(n_1),...`` each.

    ``states`` holds one row of int64 counts per time, each non-negative,
    as ``JumpTrajectory`` checks them, so no field carries a sign.  Each
    row is laid out in fixed-width fields of a uint8 matrix, and a mask per
    field keeps its characters: the time's integer part without leading
    zeros, '.', its fraction without trailing zeros (one digit at least),
    then ',' and each count without leading zeros.  Times that
    :func:`shortest_digits` leaves uncertain take ``repr`` itself.
    """
    n = len(times)
    m, s, decimals, easy = shortest_digits(times)
    hard = np.flatnonzero(~easy)
    # m = whole 10^s + frac; the first 20 digits after the point are head's 8, then tail's 12
    scale = _POW10[np.minimum(s, 18)]
    whole = m // scale
    frac = m - whole * scale
    cut = _POW10[np.maximum(s - 8, 0)]
    head = frac // cut
    tail = (frac - head * cut) * _POW10[np.minimum(20 - s, 12)]
    head *= _POW10[np.maximum(8 - s, 0)]
    texts = [repr(t) for t in times[hard].tolist()]
    wi = len(str(int(whole.max())))
    wf = max(int(decimals.max()), max(map(len, texts), default=0) - wi - 1)
    wt = wi + 1 + wf
    fields = [(column, len(str(int(column.max(initial=0))))) for column in states.T]
    width = wt + sum(1 + w for _, w in fields) + 1
    chars = np.empty((n, width), dtype=np.uint8)
    keep = np.ones((n, width), dtype=bool)
    chars[:, :wi] = _ascii_digits(whole, wi)
    _keep_digits(keep[:, :wi], whole, wi)
    chars[:, wi] = ord(".")
    fraction = chars[:, wi + 1 : wt]
    fraction[:, : min(wf, 8)] = _ascii_digits(head, 8)[:, :wf]
    if wf > 8:
        fraction[:, 8:20] = _ascii_digits(tail, 12)[:, : wf - 8]
    for j in range(1, wf):
        np.greater(decimals, j, out=keep[:, wi + 1 + j])
    if texts:
        chars[hard, :wt] = np.array(texts, dtype=f"S{wt}").view(np.uint8).reshape(-1, wt)
        keep[hard, :wt] = np.arange(wt) < np.array([len(t) for t in texts])[:, None]
    col = wt
    for column, w in fields:
        chars[:, col] = ord(",")
        col += 1
        chars[:, col : col + w] = _ascii_digits(column, w)
        _keep_digits(keep[:, col : col + w], column, w)
        col += w
    chars[:, col] = ord("\n")
    return chars[keep].tobytes().decode("ascii")
