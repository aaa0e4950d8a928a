"""Command-line front end.

Subcommands: ``reduce`` (netlist -> reduced one-port model JSON), ``poles``
(branch-tracked pole loci CSV), ``impulse`` (impulse-response matrix CSV with
an analytic cross-check), ``simulate`` (reduced model vs ladder oracle
trajectories). Outputs are deterministic: identical invocations produce
byte-identical files.

Every refusal is a raised ``LineportError``; ``main`` prints its message and
returns its class's ``exit_code`` (0 on success).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import InputError, LineportError, NumericalPreconditionError, ValidationError
from .inversion import (DEFAULT_IFFT_SAMPLES, MAX_IFFT_SAMPLES, MIN_IFFT_SAMPLES,
                        impulse_response_table, residues)
from .netlist import derive_reduced_model, invariant_report, parse_netlist_file
from .reduced_dynamics import (MAX_LADDER_SECTIONS, MIN_LADDER_SECTIONS, LadderSystem,
                               ReducedState, assemble_rhs, integrate, ladder_oracle)
from .signals import write_csv
from .spectral import ENTRY_NAMES, pole_locus, transfer_matrix
from .tline import LineInitialState, line_params, thevenin_source

OUT_DIR_ENV = "LINEPORT_OUT"
INVARIANT_TOL = 1e-9
MAX_G_POINTS = 10 ** 6
#: most ``simulate`` output samples: 10^6 keeps each trajectory column at 8 MB
MAX_SAMPLES = 10 ** 6


def _out_dir(args):
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path, payload):
    with open(path, "w", newline="") as fh:
        fh.write(_json_text(payload))


def _write(path, writer, *args):
    """Write one result file with ``writer(path, *args)`` and report it."""
    writer(path, *args)
    print(f"wrote {path}")


def cmd_reduce(args):
    topology = parse_netlist_file(args.netlist)
    model = derive_reduced_model(topology, args.z_c)
    report = invariant_report(model)
    worst = max(report.values())
    if worst > INVARIANT_TOL:
        raise ValidationError(f"invariant residual {worst:.3g} exceeds {INVARIANT_TOL:g}")
    payload = model.to_json_dict()
    payload["invariants"] = report
    payload["warnings"] = list(model.warnings)
    sys.stdout.write(_json_text(payload))
    out = _out_dir(args)
    _write(os.path.join(out, "reduced_model.json"), _write_json, payload)
    return 0


def _check_g(values):
    for g in values:
        if not 0.0 < g < 1.0:
            raise InputError(f"g values must lie in (0, 1), got {g}")


def _check_count(flag, value, low, high):
    """Refuse a count flag's value outside [low, high], naming the bound it breaks."""
    if not low <= value <= high:
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise InputError(f"{flag} must be {bound}, got {value}")


def cmd_poles(args):
    _check_g((args.g_start, args.g_stop))
    alphas = args.alpha if args.alpha else [0.5, 1.0, 2.0]
    if (args.g_stop - args.g_start) / args.g_step >= MAX_G_POINTS:
        raise InputError(f"--g-step {args.g_step:g} gives more than {MAX_G_POINTS} g points "
                         f"from --g-start {args.g_start:g} to --g-stop {args.g_stop:g}; "
                         f"use --g-step >= {(args.g_stop - args.g_start) / MAX_G_POINTS:.3g}")
    # a stop below the start gives an empty range, however small the step
    g_grid = np.arange(args.g_start, max(args.g_stop + 0.5 * args.g_step, args.g_start),
                       args.g_step)
    g_grid = g_grid[(g_grid > 0.0) & (g_grid < 1.0)]
    if len(g_grid) == 0:
        raise InputError(f"empty g grid: --g-stop {args.g_stop:g} lies below "
                         f"--g-start {args.g_start:g}; use --g-stop >= --g-start")
    # every locus before the first file, so a refused alpha leaves no partial output
    loci = [pole_locus(alpha, g_grid) for alpha in alphas]
    out = _out_dir(args)
    files = []
    for alpha, locus in zip(alphas, loci):
        path = os.path.join(out, f"poles_alpha{alpha:g}.csv")
        _write(path, locus.to_csv)
        files.append({"alpha": alpha, "file": os.path.basename(path),
                      "transitions": {str(k): v for k, v in locus.transitions.items()}})
    echo = {"alphas": alphas, "g_start": args.g_start, "g_stop": args.g_stop,
            "g_step": args.g_step, "normalized": True, "files": files}
    _write(os.path.join(out, "poles_params.json"), _write_json, echo)
    return 0


def cmd_impulse(args):
    gs = args.g if args.g else [0.3, 0.8]
    _check_g(gs)
    n = args.n
    _check_count("--n", n, MIN_IFFT_SAMPLES, MAX_IFFT_SAMPLES)
    omega_r = args.omega_r
    if n & (n - 1):
        n = 1 << (n - 1).bit_length()
        print(f"warning: n rounded up to the next power of two: {n}", file=sys.stderr)
    t_max = args.t_max if args.t_max is not None else 10.0 * 2.0 * np.pi / omega_r
    # every matrix is inverted before the first file is written, so a refused
    # one leaves no partial output
    tables = []
    for g in gs:
        spec = transfer_matrix(g, args.alpha, omega_r)
        tables.append((g, spec, *impulse_response_table(spec, t_max, n)))
    out = _out_dir(args)
    for g, spec, t_ref, table, discrepancy in tables:
        stem = f"impulse_g{g:g}_alpha{args.alpha:g}"
        for suffix, col in (("", 0), ("_pf", 1)):
            _write(os.path.join(out, f"{stem}{suffix}.csv"), write_csv,
                   "t," + ",".join(ENTRY_NAMES),
                   [t_ref, *(table[e][col].samples for e in ENTRY_NAMES)])
        sidecar = {
            "g": g, "alpha": args.alpha, "omega_r": omega_r, "t_max": t_max,
            "n_samples": n,
            "sigma": table["h11"][0].meta["sigma"],
            "alias_bound": max(table[e][0].meta["alias_bound"] for e in table),
            "max_ifft_vs_partial_fractions": discrepancy,
            "poles": [[s.real, s.imag] for s in spec.poles.poles],
            "pole_flags": list(spec.poles.flags),
            # at a near-double pole the pair's residues are rounding noise
            "residues": None if "near-double-root" in spec.poles.flags else {
                e: [[r.real, r.imag] for r in row]
                for e, row in zip(ENTRY_NAMES, residues(spec)[1])},
        }
        _write(os.path.join(out, f"{stem}.json"), _write_json, sidecar)
    return 0


def _parse_vector(text, n, what):
    if text is None:
        return np.zeros(n)
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad {what} vector {text!r}")
    if not np.all(np.isfinite(vals)):
        raise InputError(f"--{what} values must be finite, got {text!r}")
    if len(vals) > n:
        raise InputError(f"--{what} gives {len(vals)} values for {n} circuit "
                         f"nodes; give at most {n}")
    out = np.zeros(n)
    out[:len(vals)] = vals
    return out


def _profile_flags(args):
    return " and ".join(flag for flag, path in (("--phi0-csv", args.phi0_csv),
                                                ("--q0-csv", args.q0_csv)) if path)


def _line_profiles(args):
    """The line's initial state from the profile files; a profile whose slope
    is not finite is refused naming its flag."""
    try:
        return LineInitialState.from_csv(args.phi0_csv, args.q0_csv, extend="zero")
    except NumericalPreconditionError as exc:
        raise NumericalPreconditionError(f"{_profile_flags(args)}: {exc}") from None


def _line_source(args, profiles, topology, line, t_grid, length):
    """The line's source e0 = 2 v_bwd on ``t_grid``, before any stepping.
    Profiles whose e0, or whose ladder energy with the circuit at rest, is not
    finite in float64 are refused with the largest power of ten to scale them
    by that keeps both finite, found by bisection on powers of two."""
    system = LadderSystem(topology, line, args.n_sections, length)
    n = topology.node_count
    rest = ReducedState(phi=np.zeros(n), q=np.zeros(n), q0=0.0)

    def not_finite(state):
        """The source e0, None if refused, and the names of what is not finite."""
        try:
            e0 = thevenin_source(state, line, t_grid)
        except NumericalPreconditionError:
            e0 = None
        with np.errstate(over="ignore", invalid="ignore"):
            energy = system.hamiltonian(*system.initial_state(rest, state))
        return e0, [what for what, bad in (("source e0", e0 is None),
                                           ("ladder energy", not np.isfinite(energy))) if bad]

    def fits(k):
        """Whether the profiles scaled by 2^-k give a finite e0 and energy."""
        return not not_finite(replace(profiles, phi0=np.ldexp(profiles.phi0, -k),
                                      q0=np.ldexp(profiles.q0, -k)))[1]

    e0, failed = not_finite(profiles)
    if failed:
        low, high = 0, 2 * 1075  # 2^-2150 scales every float64 to zero
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if fits(mid) else (mid, high)
        raise NumericalPreconditionError(
            f"{_profile_flags(args)}: the line profiles' {' and '.join(failed)} "
            f"{'are' if len(failed) > 1 else 'is'} not finite in float64 with the circuit "
            f"at rest; scale the profile values by 1e{math.floor(-high * math.log10(2.0))} "
            "or less")
    return e0


def cmd_simulate(args):
    # the counts first: an absurd one is refused before any work
    _check_count("--samples", args.samples, 2, MAX_SAMPLES)
    _check_count("--n-sections", args.n_sections, MIN_LADDER_SECTIONS, MAX_LADDER_SECTIONS)
    topology = parse_netlist_file(args.netlist)
    if not (0.0 < args.ell * args.c_per_len < np.inf and 0.0 < args.ell / args.c_per_len < np.inf):
        raise NumericalPreconditionError(
            f"--ell {args.ell:g} and --c-per-len {args.c_per_len:g} give a wave speed or "
            "impedance that is not representable; rescale the units")
    line = line_params(args.ell, args.c_per_len)
    model = derive_reduced_model(topology, line.z_c)
    n = topology.node_count
    phi = _parse_vector(args.phi, n, "phi")
    if args.phi is None and args.q is None and args.q0 == 0.0 \
            and args.phi0_csv is None and args.q0_csv is None:
        phi[0] = 1.0  # default excitation: displace node 1
    q = _parse_vector(args.q, n, "q")
    initial = ReducedState(phi=phi, q=q, q0=args.q0)

    t_max = args.t_max
    t_grid = np.linspace(0.0, t_max, args.samples)

    line_initial = None
    e0 = None
    if args.phi0_csv or args.q0_csv:
        line_initial = _line_profiles(args)
    # default: no wave that starts on the circuit or inside the sampled
    # profiles returns from the open far end before t_max (12 % margin)
    x_max = line_initial.x_max if line_initial is not None else 0.0
    length = (args.length if args.length is not None
              else 1.12 * line.v_p * t_max / 2.0 + 0.56 * x_max)
    if line_initial is not None:
        e0 = _line_source(args, line_initial, topology, line, t_grid, length)

    rhs = assemble_rhs(model, topology, e0=e0)
    reduced = integrate(rhs, initial, t_grid)
    ladder = ladder_oracle(line, args.n_sections, length, topology, initial,
                           t_grid, line_initial=line_initial)
    out = _out_dir(args)
    _write(os.path.join(out, "trajectory_reduced.csv"), reduced.to_csv)
    _write(os.path.join(out, "trajectory_ladder.csv"), ladder.to_csv)
    # phi1 scaled exactly by a power of two to a peak in [0.5, 1): no overflow
    exp = np.frexp(max(np.abs(ladder.phi[:, 0]).max(), np.abs(reduced.phi[:, 0]).max()))[1]
    got, want = np.ldexp(ladder.phi[:, 0], -exp), np.ldexp(reduced.phi[:, 0], -exp)
    scale = np.linalg.norm(want)
    l2 = float(np.linalg.norm(got - want) / scale if scale > 0
               else np.ldexp(np.linalg.norm(got), exp))
    sidecar = {
        "model": model.to_json_dict(),
        "line": {"ell": line.ell, "c_per_len": line.c_per_len,
                 "v_p": line.v_p, "z_c": line.z_c},
        "n_sections": args.n_sections, "length": length,
        "t_max": t_max, "dt_output": float(t_grid[1] - t_grid[0]),
        "integrators": {"reduced": reduced.meta["integrator"],
                        "ladder": ladder.meta["integrator"]},
        "ladder_dt": ladder.meta["dt"],
        "ladder_energy_drift": ladder.meta["energy_drift"],
        "phi1_l2_discrepancy": l2,
    }
    _write(os.path.join(out, "simulate_summary.json"), _write_json, sidecar)
    print(f"phi1 L2 discrepancy (ladder vs reduced): {l2:.6g}")
    return 0


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _positive_float(text):
    value = _number(text)
    if not (0 < value < np.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _finite_float(text):
    value = _number(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lineport",
        description="Semi-infinite transmission line coupled to a lumped "
                    "circuit: reduction, simulation, and Laplace analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="netlist -> reduced one-port model JSON")
    p.add_argument("netlist")
    p.add_argument("--z-c", type=_positive_float, default=50.0,
                   help="line characteristic impedance [ohm] (default 50)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("poles", help="pole loci over g for given alpha values")
    p.add_argument("--alpha", type=_positive_float, action="append",
                   help="repeatable; default 0.5 1.0 2.0")
    p.add_argument("--g-start", type=float, default=0.001)
    p.add_argument("--g-stop", type=float, default=0.999)
    p.add_argument("--g-step", type=_positive_float, default=0.001)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("impulse", help="impulse-response matrix with oracle cross-check")
    p.add_argument("--g", type=float, action="append",
                   help="repeatable; default 0.3 0.8")
    p.add_argument("--alpha", type=_positive_float, default=2.0)
    p.add_argument("--omega-r", type=_positive_float, default=1.0)
    p.add_argument("--t-max", type=_positive_float, default=None,
                   help="default 10 T_r")
    p.add_argument("--n", type=int, default=DEFAULT_IFFT_SAMPLES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_impulse)

    p = sub.add_parser("simulate", help="reduced model vs LC-ladder oracle")
    p.add_argument("netlist")
    p.add_argument("--ell", type=_positive_float, required=True,
                   help="line inductance per length [H/m]")
    p.add_argument("--c-per-len", type=_positive_float, required=True,
                   help="line capacitance per length [F/m]")
    p.add_argument("--t-max", type=_positive_float, required=True)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--n-sections", type=int, default=1000)
    p.add_argument("--length", type=_positive_float, default=None,
                   help="line length [m]; default sized to the no-echo window")
    p.add_argument("--phi", default=None, help="comma-separated initial node fluxes")
    p.add_argument("--q", default=None, help="comma-separated initial node charges")
    p.add_argument("--q0", type=_finite_float, default=0.0, help="initial port momentum Q0")
    p.add_argument("--phi0-csv", default=None, help="initial line flux profile (x,value)")
    p.add_argument("--q0-csv", default=None,
                   help="initial line charge-density profile (x,value)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LineportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
