"""Semi-infinite transmission line: parameters, the incoming wave, one-port source.

The line carries a flux field phi(t;x) obeying the wave equation with speed
v_p = 1/sqrt(ell*c) and characteristic impedance Z_c = sqrt(ell/c). Seen from
its end at x = 0 it acts as a resistor Z_c in series with a voltage source
e0(t) = 2 v_bwd(t), where the backward voltage wave is fixed by the initial
flux and charge-density profiles:

    v_bwd(t) = q0(v_p t) / (2 c)  +  (v_p / 2) * dphi0/dx (v_p t)

Note the 1/(2c) prefactor on the charge-density term: the two wave-splitting
formulas are used in the dimensionally consistent form that the d'Alembert
split of the initial data forces (1/(c Z_c) = v_p).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalPreconditionError, ValidationError
from .signals import Signal


@dataclass(frozen=True)
class LineParams:
    """Per-unit-length line constants and the derived wave quantities."""

    ell: float          # inductance per length [H/m]
    c_per_len: float    # capacitance per length [F/m]
    v_p: float          # propagation speed [m/s]
    z_c: float          # characteristic impedance [ohm]


def line_params(ell: float, c_per_len: float) -> LineParams:
    if not (ell > 0) or not (c_per_len > 0):
        raise ValidationError("line constants must be positive")
    return LineParams(ell=ell, c_per_len=c_per_len,
                      v_p=1.0 / np.sqrt(ell * c_per_len),
                      z_c=np.sqrt(ell / c_per_len))


@dataclass
class LineInitialState:
    """Sampled initial profiles phi0(x) [weber] and q0(x) [coulomb/m] on a
    uniform grid x = 0, dx, ..., x_max, with linear interpolation between
    samples and an explicit out-of-domain policy ('error' or 'zero').

    phi0, q0 and the slope dphi0/dx are held as ``Signal``s in x, which
    check dx > 0 and finite samples and do the interpolation; a slope that
    is not finite in float64 is refused with ``NumericalPreconditionError``."""

    dx: float
    phi0: np.ndarray
    q0: np.ndarray
    extend: str = "error"

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float)
        self.q0 = np.asarray(self.q0, dtype=float)
        if self.phi0.shape != self.q0.shape or self.phi0.ndim != 1 or len(self.phi0) < 3:
            raise ValidationError("profiles must be equal-length 1-D arrays (>= 3 samples)")
        if self.extend not in ("error", "zero"):
            raise ValidationError(f"unknown extend policy {self.extend!r}")
        self._phi = Signal(t0=0.0, dt=self.dx, samples=self.phi0)
        self._q = Signal(t0=0.0, dt=self.dx, samples=self.q0)
        # central differences inside, one-sided at the ends
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            slope = np.gradient(self.phi0, self.dx)
        if not np.isfinite(slope).all():
            raise NumericalPreconditionError(
                "the flux profile's slope dphi0/dx is not finite in float64; "
                "scale the profile down or sample it more coarsely")
        self._phi_x = Signal(t0=0.0, dt=self.dx, samples=slope)

    @property
    def x_max(self) -> float:
        return self.dx * (len(self.phi0) - 1)

    @classmethod
    def from_functions(cls, phi_fn, q_fn, x_max, dx, extend="error") -> "LineInitialState":
        x = np.arange(0.0, x_max + 0.5 * dx, dx)
        return cls(dx=dx, phi0=phi_fn(x), q0=q_fn(x), extend=extend)

    @classmethod
    def rest(cls, x_max, dx, extend="zero") -> "LineInitialState":
        n = int(round(x_max / dx)) + 1
        return cls(dx=dx, phi0=np.zeros(n), q0=np.zeros(n), extend=extend)

    @classmethod
    def from_csv(cls, phi_path=None, q_path=None, extend="error") -> "LineInitialState":
        """Load profiles from two-column CSV files (x, value); either file may
        be omitted, in which case that profile is zero. Each file holds at
        least three rows from x = 0 (within 1e-9 dx), and the two share one x
        grid; a file that does not is refused with ``InputError``."""
        if phi_path is None and q_path is None:
            raise ValidationError("need at least one profile file")
        phi_sig = Signal.from_csv(phi_path) if phi_path else None
        q_sig = Signal.from_csv(q_path) if q_path else None
        for path, sig in ((phi_path, phi_sig), (q_path, q_sig)):
            if sig is not None and abs(sig.t0) > 1e-9 * sig.dt:
                raise InputError(
                    f"profile file {str(path)!r} starts at x = {sig.t0:g}; a profile "
                    f"starts at the port, x = 0: shift its x column by {-sig.t0:g}")
            if sig is not None and len(sig) < 3:
                raise InputError(f"profile file {str(path)!r} has {len(sig)} rows; "
                                 "a profile needs at least 3")
        ref = phi_sig or q_sig
        if phi_sig and q_sig:
            if len(phi_sig) != len(q_sig) or abs(phi_sig.dt - q_sig.dt) > 1e-12 * ref.dt:
                raise InputError(f"profile files {str(phi_path)!r} ({len(phi_sig)} rows, dx "
                                 f"{phi_sig.dt:g}) and {str(q_path)!r} ({len(q_sig)} rows, dx "
                                 f"{q_sig.dt:g}) must share one x grid: give both one x column")
        zeros = np.zeros(len(ref))
        return cls(dx=ref.dt,
                   phi0=phi_sig.samples if phi_sig else zeros,
                   q0=q_sig.samples if q_sig else zeros,
                   extend=extend)

    def _at(self, profile, x):
        try:
            return profile(x, self.extend)
        except ValidationError as exc:  # worded for a profile in x, not a signal in t
            raise ValidationError(
                str(exc).replace("time", "position", 1).replace("signal domain", "sampled profile")
                + "; supply a longer profile or construct the state with extend='zero'") from None

    def phi_at(self, x):
        return self._at(self._phi, x)

    def q_at(self, x):
        return self._at(self._q, x)

    def phi_x_at(self, x):
        return self._at(self._phi_x, x)


def backward_wave(initial: LineInitialState, params: LineParams, t):
    """Backward voltage wave v_bwd(t) at x = 0 from the initial line state."""
    x = params.v_p * np.asarray(t, dtype=float)
    return (initial.q_at(x) / (2.0 * params.c_per_len)
            + 0.5 * params.v_p * initial.phi_x_at(x))


def thevenin_samples(initial: LineInitialState, params: LineParams, t_grid) -> np.ndarray:
    """The samples e0 = 2 v_bwd(t) of ``thevenin_source`` on ``t_grid``, without
    its refusal: inf or NaN where the profiles overflow float64, with no
    numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * backward_wave(initial, params, t_grid)


def thevenin_source(initial: LineInitialState, params: LineParams, t_grid) -> Signal:
    """One-port source e0(t) = 2 v_bwd(t) sampled on ``t_grid``; profiles whose
    e0 is not finite in float64 are refused with ``NumericalPreconditionError``."""
    t_grid = np.asarray(t_grid, dtype=float)
    e0 = thevenin_samples(initial, params, t_grid)
    if not np.isfinite(e0).all():
        raise NumericalPreconditionError(
            "the line profiles' source e0 is not finite in float64; "
            "scale the profile values down")
    return Signal.from_samples(t_grid, e0)
