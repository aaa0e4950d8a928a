"""Uniformly sampled time series and trajectory containers with CSV I/O.

Every CSV file this package writes goes through :func:`write_csv`, the one
place that fixes the output format: comma-separated, a header line first,
``\n`` line endings, and every value printed with 17 significant digits, so
that repeated runs are byte-identical and every float64 reads back exactly.

The values are printed by a numpy kernel whose bytes equal ``FLOAT_FMT % x``
for every float64. It takes the 17 significant digits of |x| as one int64,
D = round-half-even(|x| * 10**(16 - X)) for the decimal exponent X, from the
exact product of |x| and a double-double 10**(16 - X) (Dekker, Numer. Math.
18, 1971). It lays each value out in a column of a fixed-width byte block,
writes NUL where ``%.17g`` prints nothing and deletes the NULs at the end.
A value it cannot certify takes the exact path, ``FLOAT_FMT % x`` itself:
a non-finite value, |x| outside [1e-250, 1e250], where the scaled products
could overflow or underflow, and a scaled value within 1e-6 of a rounding
tie, whose direction rests on bits the double-double product does not hold.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ValidationError

FLOAT_FMT = "%.17g"

_CHUNK_VALUES = 4096  # the kernel's scratch arrays grow with the values per call
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
_SLOT = np.arange(18, dtype=np.int8)[:, None]


def write_csv(path, header, columns):
    """Write ``columns`` side by side under the ``header`` line.

    Each column is a 1-D array or a 2-D array holding several columns; all
    share one length. Every value reads ``FLOAT_FMT % value``, printed by the
    numpy kernel of this module (exact path included). Rows go to the kernel
    in chunks of about ``_CHUNK_VALUES`` values, so its scratch memory stays
    a few hundred kB whatever the table size.
    """
    table = np.asarray(np.column_stack(columns), dtype=float)
    rows = max(1, _CHUNK_VALUES // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), rows):
            fh.write(_format_rows(table[start:start + rows]))


@functools.lru_cache(maxsize=None)
def _pow10(k):
    """10**k as a double-double: hi is 10**k rounded, lo the rounded rest."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10 ** -k
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


@functools.lru_cache(maxsize=None)
def _exponent_layout(x):
    """What ``%.17g`` prints around the digits of a value of decimal exponent
    ``x``: the 5 prefix and 5 exponent bytes of its block column (NUL-padded),
    the digit the point follows (16: none) and the last digit printed even
    when it and all after it are zero."""
    if -4 <= x < 0:
        prefix, suffix, point, kept = "0." + "0" * (-x - 1), "", 16, -1
    elif 0 <= x <= 16:
        prefix, suffix, point, kept = "", "", x, x
    else:
        prefix, suffix, point, kept = "", f"e{x:+03d}", 0, 0
    return (*prefix.ljust(5, "\0").encode(), *suffix.rjust(5, "\0").encode(), point, kept)


def _per_exponent(fn, lo, hi):
    return np.array([fn(k) for k in range(lo, hi + 1)])


def _scaled(a, k):
    """round-half-even(a * 10**k) as int64 for a * 10**k in [1e15, 1e18], and
    whether it lay within ``_TIE_MARGIN`` of a tie."""
    k0 = int(k.min())
    hi, lo = _per_exponent(_pow10, k0, int(k.max())).T
    hi = hi.take(k - k0)
    lo = lo.take(k - k0)
    p = a * hi  # a * hi == p + err exactly (Dekker's product of split halves)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * hi
    hh = c - (c - hi)
    hl = hi - hh
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    whole = np.floor(p)
    frac = (p - whole) + (err + a * lo)
    below = np.floor(frac)
    frac -= below
    digits = whole.astype(np.int64) + below.astype(np.int64) + (frac > 0.5)
    return digits, np.abs(frac - 0.5) < _TIE_MARGIN


def _decimal(x):
    """Decimal exponent X and significand D of each |x|, with |x| rounded
    half-even to D * 10**(X - 16) and D in [10**16, 10**17) (X = D = 0 for a
    zero), and the mask of values left to the exact path."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)  # one off at worst, near a power of ten
    D, tie = _scaled(a, 16 - X)
    for step, wrong in ((1, D >= 10 ** 17), (-1, D < 10 ** 16)):
        i = np.flatnonzero(wrong)
        if len(i):
            X[i] += step
            D[i], t = _scaled(a[i], 16 - X[i])
            tie[i] |= t
    # %.17g picks the lower exponent when |x| rounds below 10**17 there too
    i = np.flatnonzero(D == 10 ** 16)
    if len(i):
        lower, t = _scaled(a[i], 17 - X[i])
        tie[i] |= t
        fits = lower < 10 ** 17
        X[i[fits]] -= 1
        D[i[fits]] = lower[fits]
    X[zero] = 0
    D[zero] = 0
    return X, D, ~(fast | zero) | tie


def _format_rows(table):
    """The CSV bytes of the rows of the 2-D float64 ``table``.

    Block rows, one column per value: 0 the sign, 1-5 the "0.000" prefix of
    -4 <= X < 0, 6-23 the 17 digits with the point after digit ``point``,
    24-28 the exponent, 29 the separator.
    """
    x = table.ravel()
    n = len(x)
    X, D, exact = _decimal(x)
    digits = np.empty((17, n), np.uint8)
    high = D // 10 ** 9
    for part, rows in ((high.astype(np.int32), range(7, -1, -1)),
                       ((D - high * 10 ** 9).astype(np.int32), range(16, 7, -1))):
        for i in rows:
            q = part // 10
            digits[i] = part - 10 * q
            part = q
    x0 = int(X.min())
    layout = _per_exponent(_exponent_layout, x0, int(X.max())).astype(np.int8)
    i = X - x0
    point = layout[:, 10].take(i)
    last = ((digits != 0) * _SLOT[:17]).max(0)  # %.17g drops trailing zeros after it
    chars = np.zeros((18, n), np.uint8)
    chars[:17] = (digits + ord("0")) * (_SLOT[:17] <= np.maximum(last, layout[:, 11].take(i)))

    block = np.empty((30, n), np.uint8)
    block[0] = np.signbit(x) * ord("-")
    affixes = layout[:, :10].T.view(np.uint8).take(i, axis=1)
    block[1:6] = affixes[:5]
    block[24:29] = affixes[5:]
    # digit j sits in slot j up to the point and in slot j + 1 after it; the
    # point's own slot holds '.' when a digit follows, else NUL
    region = block[6:24]
    region[0] = chars[0]
    after_point = (_SLOT[1:] > point).view(np.uint8)
    region[1:] = chars[1:] + after_point * (chars[:17] - chars[1:])
    region[point + 1, np.arange(n)] = (last > point) * ord(".")
    block[29] = ord(",")
    block[29, table.shape[1] - 1::table.shape[1]] = ord("\n")
    j = np.flatnonzero(exact)
    if len(j):
        text = "".join([(FLOAT_FMT % v).ljust(29, "\0") for v in x[j].tolist()])
        block[:29, j] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 29).T
    return block.T.tobytes().translate(None, b"\0")


def uniform_grid(t_grid):
    """``t_grid`` as a float array and its step; a grid of fewer than two
    points, not strictly increasing or not uniform (1e-9 relative) is refused."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ValidationError("time grid needs at least two samples")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ValidationError("time grid must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValidationError("time grid must be uniform")
    return t_grid, float(steps[0])


@dataclass
class Signal:
    """Real signal sampled on a uniform time grid.

    ``meta`` holds method diagnostics (for example the IFFT inversion
    quality metrics).
    """

    t0: float
    dt: float
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValidationError("signal samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("signal samples must be finite")
        if self.dt <= 0:
            raise ValidationError("signal sample spacing must be positive")

    @property
    def t_grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))

    @property
    def t_max(self) -> float:
        return self.t0 + self.dt * (len(self.samples) - 1)

    def __len__(self):
        return len(self.samples)

    def __call__(self, t, extend: str = "error"):
        """Linear interpolation at ``t``.

        extend='error' rejects out-of-domain times, extend='zero' returns 0
        outside the sampled window.
        """
        t = np.asarray(t, dtype=float)
        inside = (t >= self.t0 - 1e-12 * self.dt) & (t <= self.t_max + 1e-12 * self.dt)
        if extend == "error":
            if not np.all(inside):
                raise ValidationError(
                    f"time {float(np.atleast_1d(t)[~np.atleast_1d(inside)][0]):g} outside "
                    f"signal domain [{self.t0:g}, {self.t_max:g}]"
                )
        elif extend != "zero":
            raise ValidationError(f"unknown extend policy {extend!r}")
        out = np.interp(t, self.t_grid, self.samples, left=0.0, right=0.0)
        if extend == "zero":
            out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

    @classmethod
    def zeros(cls, t_grid) -> "Signal":
        t_grid = np.asarray(t_grid, dtype=float)
        return cls(t0=float(t_grid[0]), dt=float(t_grid[1] - t_grid[0]),
                   samples=np.zeros(len(t_grid)))

    @classmethod
    def from_samples(cls, t_grid, samples) -> "Signal":
        t_grid, dt = uniform_grid(t_grid)
        return cls(t0=float(t_grid[0]), dt=dt, samples=np.asarray(samples, dtype=float))

    def to_csv(self, path, header="t,value"):
        write_csv(path, header, (self.t_grid, self.samples))

    @classmethod
    def from_csv(cls, path) -> "Signal":
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise InputError(f"cannot read CSV file: {exc}") from None
        except ValueError as exc:
            raise InputError(f"bad CSV file {str(path)!r}: {exc}") from None
        if data.shape[1] < 2:
            raise InputError(f"CSV file {str(path)!r} needs two columns, has {data.shape[1]}")
        try:
            x, dx = uniform_grid(data[:, 0])
        except ValidationError as exc:  # the first column is an x grid, not a time grid
            raise InputError(f"CSV file {str(path)!r}: first column "
                             f"{str(exc).removeprefix('time grid ')}") from None
        if not np.all(np.isfinite(data[:, 1])):
            raise InputError(f"CSV file {str(path)!r}: value column must be finite")
        return cls(t0=float(x[0]), dt=dx, samples=data[:, 1])


@dataclass
class Trajectory:
    """Time evolution of the reduced circuit state on a uniform grid.

    phi, q are (T, N) arrays; q0, v0 are (T,) arrays. ``meta`` records the
    integrator name, dt, and any solver diagnostics.
    """

    t_grid: np.ndarray
    phi: np.ndarray
    q: np.ndarray
    q0: np.ndarray
    v0: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_grid, _ = uniform_grid(self.t_grid)

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @property
    def n_nodes(self) -> int:
        return self.phi.shape[1]

    def to_csv(self, path):
        n = self.n_nodes
        cols = ["t"] + [f"phi{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)]
        cols += ["q0", "v0"]
        write_csv(path, ",".join(cols), (self.t_grid, self.phi, self.q, self.q0, self.v0))


def peak_envelope(t_grid, samples):
    """Local maxima of |samples|, refined by parabolic interpolation.

    Returns (times, amplitudes); used for decay-rate and envelope checks on
    oscillatory signals.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    a = np.abs(np.asarray(samples, dtype=float))
    idx = np.where((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:]))[0] + 1
    if len(idx) == 0:
        return np.array([]), np.array([])
    dt = t_grid[1] - t_grid[0]
    ts, amps = [], []
    for i in idx:
        y0, y1, y2 = a[i - 1], a[i], a[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            shift = 0.5 * (y0 - y2) / denom
            ts.append(t_grid[i] + shift * dt)
            amps.append(y1 - 0.25 * (y0 - y2) * shift)
        else:
            ts.append(t_grid[i])
            amps.append(y1)
    return np.asarray(ts), np.asarray(amps)
