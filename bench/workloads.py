"""The three seeded workloads: inputs, the jobs of one pass, output checks.

A workload draws its physical parameters from the seed, writes the netlists,
profile CSVs and flags the program receives into its work directory, and lists
its jobs. Sizes never depend on the seed, so a pass does the same work on every
seed. A job's ``run`` is timed; its ``check`` reads what the job produced and
runs outside the timed window.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TR = 2.0 * math.pi  # resonator period in normalized units (omega_r = 1)

# Tolerances pinned by the repository's own tests.
POLE_RESIDUAL_TOL = 1e-12   # acceptance criterion 2
IMPULSE_TOL = 1e-6          # acceptance criterion 5
LADDER_L2_TOL = 0.01        # criterion 6 and test_coupled_against_ladder
COMMUTATOR_TOL = 1e-8       # acceptance criterion 7
FORMULATION_TOL = 1e-8      # test_reduced_dynamics: integrate vs langevin_form

FLOAT_FMT = "%.17g"


class JobFailed(Exception):
    """A job exited nonzero or its output failed a check."""


@dataclass
class Job:
    name: str
    run: Callable[[], None]
    check: Callable[[], dict]   # returns {check name: value}; raises JobFailed
    out_dir: str | None = None  # where a CLI job writes; None for library jobs


def run_cli(cli, argv):
    """Call ``lineport.cli.main(argv)`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
    if code != 0:
        raise JobFailed(f"lineport {argv[0]} exited {code}: {err.getvalue().strip()}")


def _require(ok, what):
    if not ok:
        raise JobFailed(what)


def _flags(flag, values):
    return [tok for v in values for tok in (flag, repr(float(v)))]


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _phi1_l2(out_dir):
    """phi1 L2 discrepancy of the ladder against the reduced trajectory,
    recomputed from the two CSV files ``simulate`` wrote."""
    reduced = _load_csv(os.path.join(out_dir, "trajectory_reduced.csv"))
    ladder = _load_csv(os.path.join(out_dir, "trajectory_ladder.csv"))
    _require(reduced.shape == ladder.shape, "trajectory files differ in shape")
    _require(np.array_equal(reduced[:, 0], ladder[:, 0]), "trajectory time grids differ")
    return float(np.linalg.norm(ladder[:, 1] - reduced[:, 1])
                 / np.linalg.norm(reduced[:, 1]))


class Workload:
    name = ""

    def __init__(self, lp, work_dir, seed):
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.params = {}
        self.jobs = []
        self.impulse_specs = 0  # transfer matrices inverted per pass

    def _dir(self, name):
        path = os.path.join(self.work_dir, name)
        os.makedirs(path, exist_ok=True)
        return path


class Laplace(Workload):
    """`poles` on the default 999-point g grid at three alphas, then `impulse`
    at two g values: the Laplace path, with no time-domain code."""

    name = "laplace"
    G_POINTS = 999
    N_IFFT = 16384

    def __init__(self, lp, work_dir, seed):
        super().__init__(lp, work_dir, seed)
        rng = self.rng
        alphas = [float(a) for a in np.exp(rng.uniform(math.log(0.5), math.log(2.0), 3))]
        gs = [0.3 + float(rng.uniform(-0.05, 0.05)), 0.8 + float(rng.uniform(-0.05, 0.05))]
        alpha = float(rng.uniform(1.5, 2.5))
        self.params = {"poles_alphas": alphas, "impulse_g": gs, "impulse_alpha": alpha}
        self.impulse_specs = len(gs)
        poles_dir, impulse_dir = self._dir("poles"), self._dir("impulse")
        poles_argv = ["poles", *_flags("--alpha", alphas), "--out", poles_dir]
        impulse_argv = ["impulse", *_flags("--g", gs), "--alpha", repr(alpha),
                        "--n", str(self.N_IFFT), "--out", impulse_dir]

        def check_poles():
            worst_re, worst_resid = -math.inf, 0.0
            for a in alphas:
                rows = _load_csv(os.path.join(poles_dir, f"poles_alpha{a:g}.csv"))
                _require(rows.shape == (self.G_POINTS, 7), f"poles file shape {rows.shape}")
                g = rows[:, :1]
                s = rows[:, 1::2] + 1j * rows[:, 2::2]
                coeffs = [a * g, np.ones_like(g), a * g, 1.0 - g]
                terms = np.stack([coeffs[0] * s ** 3, coeffs[1] * s ** 2,
                                  coeffs[2] * s, coeffs[3] * np.ones_like(s)])
                scale = np.maximum(np.abs(terms).max(axis=0),
                                   np.abs(np.stack(coeffs)).max(axis=0))
                worst_resid = max(worst_resid, float((np.abs(terms.sum(axis=0)) / scale).max()))
                worst_re = max(worst_re, float(s.real.max()))
            values = {"poles.max_re": worst_re, "poles.max_backward_residual": worst_resid}
            _require(worst_re < 0.0, f"pole with Re >= 0: {worst_re:g}")
            _require(worst_resid <= POLE_RESIDUAL_TOL,
                     f"pole backward residual {worst_resid:.3g} > {POLE_RESIDUAL_TOL:g}")
            return values

        def check_impulse():
            worst = 0.0
            for g in gs:
                stem = os.path.join(impulse_dir, f"impulse_g{g:g}_alpha{alpha:g}")
                via_ifft, via_pf = _load_csv(stem + ".csv"), _load_csv(stem + "_pf.csv")
                _require(via_ifft.shape == via_pf.shape and via_ifft.shape[1] == 5,
                         "impulse files differ in shape")
                _require(np.array_equal(via_ifft[:, 0], via_pf[:, 0]), "impulse time grids differ")
                err = np.abs(via_ifft[:, 1:] - via_pf[:, 1:]).max(axis=0)
                worst = max(worst, float((err / np.abs(via_pf[:, 1:]).max(axis=0)).max()))
            _require(worst <= IMPULSE_TOL,
                     f"IFFT vs partial fractions {worst:.3g} > {IMPULSE_TOL:g}")
            return {"impulse.max_rel_err": worst}

        cli = lp.cli
        self.jobs = [
            Job("poles", lambda: run_cli(cli, poles_argv), check_poles, poles_dir),
            Job("impulse", lambda: run_cli(cli, impulse_argv), check_impulse, impulse_dir),
        ]


class Ladder(Workload):
    """`simulate` on the parallel-LC netlist at 1000, 2000 and 4000 sections,
    then the leapfrog propagator of a 300-section ladder and its commutator
    residual (acceptance criteria 6 and 7)."""

    name = "ladder"
    SECTIONS = (1000, 2000, 4000)
    SAMPLES = 1001
    PROPAGATOR_SECTIONS = 300
    PROPAGATOR_LENGTH = 20.0

    def __init__(self, lp, work_dir, seed):
        super().__init__(lp, work_dir, seed)
        g = float(self.rng.uniform(0.2, 0.5))
        alpha = float(self.rng.uniform(1.0, 3.0))
        self.params = {"g": g, "alpha": alpha}
        # C_r = L_r = 1, so omega_r = Z_r = 1 and Z_c = alpha; v_p = 1.
        z_c = alpha
        netlist = os.path.join(work_dir, "lc.net")
        _write_text(netlist, f"C 1 2 1.0\nL 1 2 1.0\nCOUPLE {g / (1.0 - g)!r}\n")
        line_flags = ["--ell", repr(z_c), "--c-per-len", repr(1.0 / z_c),
                      "--t-max", repr(10 * TR), "--samples", str(self.SAMPLES)]
        cli = lp.cli
        dirs = {}
        for n in self.SECTIONS:
            dirs[n] = self._dir(f"simulate_n{n}")
            argv = ["simulate", netlist, *line_flags, "--n-sections", str(n),
                    "--out", dirs[n]]
            if n != self.SECTIONS[-1]:
                check = (lambda d=dirs[n], n=n: {f"ladder.l2_n{n}": _phi1_l2(d)})
            else:
                check = self._convergence_check(dirs)
            self.jobs.append(Job(f"simulate_n{n}",
                                 lambda argv=argv: run_cli(cli, argv), check, dirs[n]))
        result = {}

        def run_propagator():
            topo = lp.parse_netlist_file(netlist)
            system = lp.LadderSystem(topo, lp.line_params(z_c, 1.0 / z_c),
                                     self.PROPAGATOR_SECTIONS, self.PROPAGATOR_LENGTH)
            prop = lp.propagator_of(system, 5 * TR, dt=TR / 1000.0)
            result["residual"] = lp.commutator_residual(prop)

        def check_propagator():
            resid = result.pop("residual")
            _require(resid <= COMMUTATOR_TOL,
                     f"commutator residual {resid:.3g} > {COMMUTATOR_TOL:g}")
            return {"ladder.commutator_residual": resid}

        self.jobs.append(Job("propagator", run_propagator, check_propagator))

    def _convergence_check(self, dirs):
        def check():
            errors = [_phi1_l2(dirs[n]) for n in self.SECTIONS]
            values = {f"ladder.l2_n{n}": e for n, e in zip(self.SECTIONS, errors)}
            _require(errors[-1] <= LADDER_L2_TOL,
                     f"L2 {errors[-1]:.3g} at {self.SECTIONS[-1]} sections > {LADDER_L2_TOL:g}")
            _require(all(a > b for a, b in zip(errors, errors[1:])),
                     "L2 not decreasing with section count: "
                     + ", ".join(f"{e:.3g}" for e in errors))
            return values
        return check


JOSEPHSON_NETLIST = """\
# node 1 couples to the line and joins node 2 through a junction (flux scale 1)
C 1 3 1.0
J 1 2 {e_j!r} 1.0
C 2 3 1.0
L 2 3 1.0
COUPLE {c_c!r}
"""

CHAIN_NETLIST = """\
# three-node LC chain, grounded through the last inductor
C 1 4 1.0
C 2 4 1.0
C 3 4 1.0
C 1 2 0.2
L 1 2 1.0
L 2 3 1.5
L 3 4 2.0
COUPLE {c_c!r}
"""


class Driven(Workload):
    """A Josephson circuit kicked by a flux pulse on the line (RK4 against the
    ladder), then a linear chain driven by the pulse's Thevenin source through
    the sourced expm stepper of both reduced formulations."""

    name = "driven"
    ELL, C_PER_LEN = 2.0, 0.5       # Z_c = 2, v_p = 1
    G = 0.3                         # coupling of the C = 1 node-1 capacitance
    T_MAX = 6 * TR
    SECTIONS = 1000
    SAMPLES = 2001
    SOURCE_SAMPLES = 20001
    PULSE_AMPLITUDE = 0.5
    PROFILE_POINTS_PER_WIDTH = 100

    def __init__(self, lp, work_dir, seed):
        super().__init__(lp, work_dir, seed)
        rng = self.rng
        e_j = float(rng.uniform(0.8, 1.2))
        x0 = float(rng.uniform(6.0, 10.0))
        w = float(rng.uniform(1.0, 2.0))
        v_p = 1.0 / math.sqrt(self.ELL * self.C_PER_LEN)
        # No-echo rule for line data: the forward half of the pulse must not
        # return from the open far end inside the window. The CLI's default
        # length ignores where the line data sits (see NOTES.md).
        length = 1.12 * (v_p * self.T_MAX + x0 + 4 * w) / 2.0
        self.params = {"e_j": e_j, "x0": x0, "w": w, "length": length}
        c_c = self.G / (1.0 - self.G)
        jj_net = os.path.join(work_dir, "josephson.net")
        chain_net = os.path.join(work_dir, "chain.net")
        _write_text(jj_net, JOSEPHSON_NETLIST.format(e_j=e_j, c_c=c_c))
        _write_text(chain_net, CHAIN_NETLIST.format(c_c=c_c))
        profile = os.path.join(work_dir, "pulse_phi0.csv")
        x = np.linspace(0.0, length, int(round(length * self.PROFILE_POINTS_PER_WIDTH / w)) + 1)
        phi0 = self.PULSE_AMPLITUDE * np.exp(-((x - x0) / w) ** 2)
        _write_text(profile, "x,phi0\n" + "".join(
            f"{FLOAT_FMT % xi},{FLOAT_FMT % vi}\n" for xi, vi in zip(x, phi0)))

        sim_dir = self._dir("simulate_josephson")
        sim_argv = ["simulate", jj_net, "--ell", repr(self.ELL),
                    "--c-per-len", repr(self.C_PER_LEN), "--t-max", repr(self.T_MAX),
                    "--samples", str(self.SAMPLES), "--n-sections", str(self.SECTIONS),
                    "--length", repr(length), "--phi", "1.0,0.5",
                    "--phi0-csv", profile, "--out", sim_dir]

        def check_josephson():
            l2 = _phi1_l2(sim_dir)
            _require(l2 <= LADDER_L2_TOL, f"Josephson L2 {l2:.3g} > {LADDER_L2_TOL:g}")
            return {"driven.josephson_l2": l2}

        result = {}

        def run_chain():
            line = lp.line_params(self.ELL, self.C_PER_LEN)
            pulse = lp.LineInitialState.from_csv(profile, None, extend="zero")
            t = np.linspace(0.0, self.T_MAX, self.SOURCE_SAMPLES)
            e0 = lp.thevenin_source(pulse, line, t)
            topo = lp.parse_netlist_file(chain_net)
            model = lp.derive_reduced_model(topo, line.z_c)
            k = lp.stiffness_matrix(topo)
            initial = lp.ReducedState(phi=np.zeros(3), q=np.zeros(3), q0=0.0)
            result["direct"] = lp.integrate(lp.assemble_rhs(model, k, e0=e0), initial, t,
                                            method="expm")
            result["langevin"] = lp.langevin_form(model, k, e0, initial, t, method="expm")

        def check_chain():
            direct, lange = result.pop("direct"), result.pop("langevin")
            worst = 0.0
            for field in ("phi", "q", "v0"):
                a, b = getattr(direct, field), getattr(lange, field)
                scale = np.abs(a).max()
                _require(scale > 0.0, f"chain {field} never moved")
                worst = max(worst, float(np.abs(a - b).max() / scale))
            _require(worst <= FORMULATION_TOL,
                     f"integrate vs langevin_form {worst:.3g} > {FORMULATION_TOL:g}")
            return {"driven.chain_rel_err": worst}

        self.jobs = [
            Job("simulate_josephson", lambda: run_cli(lp.cli, sim_argv), check_josephson,
                sim_dir),
            Job("chain", run_chain, check_chain),
        ]


WORKLOADS = {cls.name: cls for cls in (Laplace, Ladder, Driven)}
