"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each target function, in every ``lineport.*``
module that binds it, by a wrapper that records a span (name, start, end,
parent); methods are replaced on their class. Nothing under the package's
source changes. Spans stay in memory until the run ends, when ``write`` saves
them and ``layer_metrics`` reduces them to per-pass figures.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time

import numpy as np


def _integrate_note(args):
    method = args["method"]
    if method == "auto":
        method = "expm" if args["rhs"].is_linear else "rk4"
    return {"method": method, "sourced": args["rhs"].e0 is not None,
            "samples": len(args["t_grid"])}


def _langevin_note(args):
    method = args["method"]
    if method == "auto":
        method = "rk4" if callable(args["grad_u"]) else "expm"
    return {"method": method, "sourced": args["e0"] is not None,
            "samples": len(args["t_grid"])}


# (module, qualified name, note): a note maps the bound call arguments to the
# sizes the rate metrics divide by.
TARGETS = [
    ("cli", "cmd_impulse", None),
    ("cli", "cmd_poles", None),
    ("cli", "cmd_simulate", None),
    ("spectral", "find_poles", None),
    ("spectral", "pole_locus", None),
    ("spectral", "PoleLocus.to_csv", None),
    ("inversion", "bromwich_ifft", lambda a: {"points": int(a["n_samples"])}),
    ("inversion", "invert_partial_fractions", None),
    ("inversion", "residues", None),
    ("reduced_dynamics", "ladder_oracle", lambda a: {"sections": int(a["n_sections"])}),
    ("reduced_dynamics", "LadderSystem.velocities", None),
    ("reduced_dynamics", "LadderSystem.grad_potential", None),
    ("reduced_dynamics", "LadderSystem.hamiltonian", None),
    ("reduced_dynamics", "LadderSystem.one_step_matrix", None),
    ("reduced_dynamics", "integrate", _integrate_note),
    ("reduced_dynamics", "langevin_form", _langevin_note),
    ("reduced_dynamics", "ReducedRhs.__call__", None),
    ("netlist", "potential_gradient", None),
    ("netlist", "potential_energy", None),
    ("netlist", "parse_netlist_file", None),
    ("netlist", "derive_reduced_model", None),
    ("tline", "thevenin_source", None),
    ("tline", "LineInitialState.from_csv", None),
    ("signals", "Signal.__call__", None),
    ("signals", "Trajectory.to_csv", None),
    ("quantum_checks", "propagator_of", None),
    ("quantum_checks", "commutator_residual", None),
]


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.notes = {}
        self._stack = [-1]
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the harness itself (a pass or a job)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _wrap(self, name, func, note):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, notes, clock = self._stack, self.notes, time.perf_counter
        signature = inspect.signature(func) if note else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                notes[idx] = note(bound.arguments)
            stack.append(idx)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, func)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lineport" or n.startswith("lineport.")]
        for module_name, qualname, note in TARGETS:
            module = sys.modules[f"lineport.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, note))
                else:
                    new = self._wrap(name, raw, note)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(module, qualname)
            wrapper = self._wrap(name, orig, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        """Save every span as CSV rows: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                 self.ends, self.parents)):
                fh.write(f"{i},{n},{s!r},{e!r},{p}\n")


class _Spans:
    """Array view of a finished trace with self time and ancestor lookups."""

    def __init__(self, tracer):
        self._names, self._parents = tracer.names, tracer.parents
        self.names = np.array(tracer.names, dtype=object)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.dur = np.array(tracer.ends) - np.array(tracer.starts)
        self.notes = tracer.notes
        child = np.zeros(len(self.dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def where(self, name):
        return np.flatnonzero(self.names == name)

    def nearest(self, name):
        """Index of each span's nearest ancestor-or-self called ``name``
        (-1 if none). Parents always precede their children."""
        out = []
        for i, (n, p) in enumerate(zip(self._names, self._parents)):
            out.append(i if n == name else (out[p] if p >= 0 else -1))
        return np.array(out, dtype=np.int64)


def _ratio(num, den, scale=1.0):
    return float(num) * scale / den if den else 0.0


def layer_metrics(tracer, n_passes, impulse_specs, values_written):
    """Per-pass per-layer figures from the spans of ``n_passes`` traced passes,
    and the events that are counts rather than metrics. Counts are exact; a
    figure of a layer that did not run on the workload reads 0."""
    sp = _Spans(tracer)
    m = {}
    events = {}

    def calls(name):
        return len(sp.where(name))

    def self_s(name):
        return float(sp.self_time[sp.where(name)].sum())

    def total_s(name):
        return float(sp.dur[sp.where(name)].sum())

    for name in ("cli.cmd_impulse", "cli.cmd_poles", "cli.cmd_simulate",
                 "spectral.pole_locus", "spectral.PoleLocus.to_csv",
                 "inversion.invert_partial_fractions",
                 "reduced_dynamics.integrate", "reduced_dynamics.langevin_form",
                 "reduced_dynamics.LadderSystem.one_step_matrix",
                 "netlist.parse_netlist_file", "netlist.derive_reduced_model",
                 "tline.thevenin_source", "tline.LineInitialState.from_csv",
                 "signals.Trajectory.to_csv",
                 "quantum_checks.propagator_of", "quantum_checks.commutator_residual"):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("spectral.find_poles", "inversion.bromwich_ifft",
                 "reduced_dynamics.LadderSystem.velocities",
                 "reduced_dynamics.LadderSystem.grad_potential",
                 "reduced_dynamics.LadderSystem.hamiltonian",
                 "reduced_dynamics.ReducedRhs.__call__",
                 "netlist.potential_gradient", "netlist.potential_energy",
                 "signals.Signal.__call__"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["inversion.residues.calls"] = calls("inversion.residues")
    m["reduced_dynamics.ladder_oracle.self_s"] = self_s("reduced_dynamics.ladder_oracle")
    m["reduced_dynamics.ladder_oracle.total_s"] = total_s("reduced_dynamics.ladder_oracle")

    # output: CSV formatting happens in the writers and inline in cmd_impulse
    writing = (self_s("cli.cmd_impulse") + self_s("spectral.PoleLocus.to_csv")
               + self_s("signals.Trajectory.to_csv"))
    m["output.ns_per_value"] = _ratio(writing, values_written * n_passes, 1e9)

    # spectral
    fp = sp.where("spectral.find_poles")
    m["spectral.find_poles.us_per_call"] = _ratio(sp.dur[fp].sum(), len(fp), 1e6)
    in_impulse = sp.nearest("cli.cmd_impulse")[fp] >= 0
    m["spectral.find_poles.calls_per_spec"] = _ratio(in_impulse.sum(),
                                                     impulse_specs * n_passes)

    # inversion
    ifft = sp.where("inversion.bromwich_ifft")
    points = sum(sp.notes[i]["points"] for i in ifft)
    m["inversion.bromwich_ifft.ns_per_point"] = _ratio(sp.dur[ifft].sum(), points, 1e9)
    events["inversion.pf_fallbacks"] = int(
        (sp.nearest("inversion.invert_partial_fractions")[ifft] >= 0).sum())

    # ladder: one grad_potential call per substep plus one per oracle call;
    # velocities once per substep plus twice per output sample.
    oracle_of = sp.nearest("reduced_dynamics.ladder_oracle")
    oracles = sp.where("reduced_dynamics.ladder_oracle")
    grads = sp.where("reduced_dynamics.LadderSystem.grad_potential")
    vels = sp.where("reduced_dynamics.LadderSystem.velocities")
    substeps = 0
    section_substeps = 0
    for o in oracles:
        n_sub = int((oracle_of[grads] == o).sum()) - 1
        substeps += n_sub
        section_substeps += n_sub * sp.notes[o]["sections"]
    m["reduced_dynamics.ladder.substeps"] = substeps
    m["reduced_dynamics.ladder.ns_per_section_substep"] = _ratio(
        sp.dur[oracles].sum(), section_substeps, 1e9)
    m["reduced_dynamics.ladder.solves_per_substep"] = _ratio(
        (oracle_of[vels] >= 0).sum(), substeps)

    # reduced stepper
    sourced_time, sourced_samples = 0.0, 0
    rk4_time, rk4_stages = 0.0, 0
    integrate_of = sp.nearest("reduced_dynamics.integrate")
    rhs_calls = sp.where("reduced_dynamics.ReducedRhs.__call__")
    for name in ("reduced_dynamics.integrate", "reduced_dynamics.langevin_form"):
        for i in sp.where(name):
            note = sp.notes[i]
            if note["method"] == "expm" and note["sourced"]:
                sourced_time += sp.self_time[i]
                sourced_samples += note["samples"]
            elif note["method"] == "rk4" and name == "reduced_dynamics.integrate":
                rk4_time += sp.dur[i]
                rk4_stages += int((integrate_of[rhs_calls] == i).sum())
    m["reduced_dynamics.expm_sourced.us_per_sample"] = _ratio(sourced_time,
                                                              sourced_samples, 1e6)
    m["reduced_dynamics.rk4.us_per_stage"] = _ratio(rk4_time, rk4_stages, 1e6)

    # harness: share of each job's time that the lineport spans directly under
    # it cover; the lowest job shows an uninstrumented stretch of the program
    coverage = {}
    for name in dict.fromkeys(n for n in tracer.names if n.startswith("job.")):
        jobs = sp.where(name)
        coverage[name[4:]] = 1.0 - float(sp.self_time[jobs].sum() / sp.dur[jobs].sum())
    m["trace.coverage"] = min(coverage.values())
    events["trace.job_coverage"] = coverage

    per_pass = {}
    for key, value in m.items():
        if key.endswith(("_s", ".calls", ".substeps")):
            value = value / n_passes
        per_pass[key] = value
    return per_pass, events
