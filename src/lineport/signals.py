"""Uniformly sampled time series and trajectory containers with CSV I/O.

Every CSV file this package writes goes through :func:`write_csv`, the one
place that fixes the output format: comma-separated, a header line first,
``\n`` line endings, and every value printed with 17 significant digits, so
that repeated runs are byte-identical and every float64 reads back exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ValidationError

FLOAT_FMT = "%.17g"


def write_csv(path, header, columns):
    """Write ``columns`` side by side under the ``header`` line.

    Each column is a 1-D array or a 2-D array holding several columns; all
    share one length. One row format is built per table and applied to the
    Python-float rows, so formatting costs one ``%`` per row.
    """
    table = np.column_stack(columns)
    row_fmt = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row_fmt % tuple(row) for row in table.tolist())


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

    ``normalization`` records the divisor and its time when the signal was
    produced by :func:`lineport.inversion.normalize_max_abs`; ``meta`` holds
    method diagnostics (for example the IFFT inversion quality metrics).
    """

    t0: float
    dt: float
    samples: np.ndarray
    normalization: tuple[float, float] | None = None
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
