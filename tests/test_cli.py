import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import lineport.cli
import lineport.errors
import lineport.inversion
import lineport.spectral
from lineport.cli import MAX_G_POINTS, MAX_SAMPLES, main
from lineport.inversion import MAX_IFFT_SAMPLES
from lineport.reduced_dynamics import MAX_LADDER_SECTIONS
from lineport.signals import FLOAT_FMT

LC_NETLIST = """\
# parallel LC, normalized units
C 1 2 1.0
L 1 2 1.0
COUPLE {couple}
GROUND auto
"""


# capacitances whose inverse, and whose C_p p p^T, overflow
CTINY_NETLIST = "C 1 2 1e-320\nL 1 2 1.0\nCOUPLE 1.0\n"
CSMALL_NETLIST = "C 1 2 1e-200\nL 1 2 1.0\nCOUPLE 1.0\n"


def write_netlist(tmp_path, couple=0.42857142857142855, name="lc.net"):
    path = tmp_path / name
    path.write_text(LC_NETLIST.format(couple=couple))
    return path


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestReduce:
    def test_lc_example(self, tmp_path, capsys):
        net = write_netlist(tmp_path)
        rc = main(["reduce", str(net), "--z-c", "2.0", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "reduced_model.json").read_text())
        c_c = 0.42857142857142855
        assert payload["c_p"] == pytest.approx(c_c * 1.0 / (c_c + 1.0), rel=1e-14)
        assert payload["tau"] == pytest.approx(2.0 * payload["c_p"], rel=1e-14)
        assert max(payload["invariants"].values()) <= 1e-12

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_text("C 1 2 1.0\nL 1 two 1.0\nCOUPLE 1.0\n")
        rc = main(["reduce", str(net)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_inactive_node_exit_3(self, tmp_path, capsys):
        net = tmp_path / "floating.net"
        net.write_text("L 1 2 1.0\nCOUPLE 1.0\n")
        rc = main(["reduce", str(net), "--out", str(tmp_path)])
        assert rc == 3
        assert "inactive node" in capsys.readouterr().err

    @pytest.mark.parametrize("c23, names", [
        pytest.param(0.5, "floating island of nodes 2, 3 with no capacitive path to ground",
                     id="c23-0.5"),
        pytest.param(1.0, "inactive node / floating island", id="c23-1.0-zero-pivot"),
        pytest.param(2.0, "floating island of nodes 2, 3 with no capacitive path to ground",
                     id="c23-2.0"),
    ])
    def test_floating_island_exit_3(self, tmp_path, capsys, c23, names):
        # nodes 2 and 3 share a capacitor that no capacitor links to ground;
        # at 0.5 and 2.0 rounding leaves the last Cholesky pivot positive
        net = tmp_path / "island.net"
        net.write_text(f"C 1 4 1.0\nC 2 3 {c23}\nL 1 4 1.0\nL 2 4 1.0\nL 3 4 1.0\n"
                       "COUPLE 1.0\n")
        rc = main(["reduce", str(net), "--out", str(tmp_path)])
        assert rc == 3
        assert names in capsys.readouterr().err
        assert not (tmp_path / "reduced_model.json").exists()

    def test_invariant_refusal_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """A model that fails its own invariant check is refused before any
        output: no JSON on stdout and no reduced_model.json."""
        monkeypatch.setattr(lineport.cli, "invariant_report", lambda model: {"c_p_residual": 1e-6})
        rc = main(["reduce", str(write_netlist(tmp_path)), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "error: invariant residual 1e-06 exceeds 1e-09\n"
        assert not (tmp_path / "out" / "reduced_model.json").exists()

    def test_deterministic_output(self, tmp_path, capsys):
        net = write_netlist(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["reduce", str(net), "--out", str(out1)]) == 0
        assert main(["reduce", str(net), "--out", str(out2)]) == 0
        assert (out1 / "reduced_model.json").read_bytes() == \
            (out2 / "reduced_model.json").read_bytes()


class TestPoles:
    def test_alpha_2_never_aperiodic(self, tmp_path, capsys):
        rc = main(["poles", "--alpha", "2", "--g-step", "0.002",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "poles_alpha2.csv")
        assert header == ["g", "re_s1", "im_s1", "re_s2", "im_s2", "re_s3", "im_s3"]
        assert np.all(data[:, 4] > 0)

    def test_alpha_half_transition(self, tmp_path, capsys):
        rc = main(["poles", "--alpha", "0.5", "--g-step", "0.002",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "poles_alpha0.5.csv")
        assert np.any(data[:, 4] == 0.0)
        params = json.loads((tmp_path / "poles_params.json").read_text())
        assert params["files"][0]["transitions"]

    def test_default_alphas(self, tmp_path, capsys):
        rc = main(["poles", "--g-step", "0.01", "--out", str(tmp_path)])
        assert rc == 0
        for alpha in ("0.5", "1", "2"):
            assert (tmp_path / f"poles_alpha{alpha}.csv").exists()

    def test_nonpositive_alpha_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["poles", "--alpha", "-1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_stability_all_rows(self, tmp_path, capsys):
        rc = main(["poles", "--alpha", "1", "--g-step", "0.005",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, data = read_csv(tmp_path / "poles_alpha1.csv")
        assert np.all(data[:, [1, 3, 5]] < 0)


class TestImpulse:
    def test_oracle_discrepancy_small(self, tmp_path, capsys):
        rc = main(["impulse", "--g", "0.3", "--alpha", "2", "--out", str(tmp_path)])
        assert rc == 0
        sidecar = json.loads((tmp_path / "impulse_g0.3_alpha2.json").read_text())
        assert sidecar["max_ifft_vs_partial_fractions"] <= 1e-6
        header, data = read_csv(tmp_path / "impulse_g0.3_alpha2.csv")
        assert header == ["t", "h11", "h12", "h21", "h22"]
        header_pf, data_pf = read_csv(tmp_path / "impulse_g0.3_alpha2_pf.csv")
        assert np.abs(data[:, 1:] - data_pf[:, 1:]).max() <= 1e-6

    def test_aperiodic_tail_dominates_at_g_08(self, tmp_path, capsys):
        rc = main(["impulse", "--g", "0.8", "--alpha", "2", "--out", str(tmp_path)])
        assert rc == 0
        sidecar = json.loads((tmp_path / "impulse_g0.8_alpha2.json").read_text())
        poles = [complex(re, im) for re, im in sidecar["poles"]]
        real_poles = [s for s in poles if s.imag == 0.0]
        osc_poles = [s for s in poles if s.imag != 0.0]
        assert real_poles and osc_poles
        assert max(s.real for s in real_poles) > max(s.real for s in osc_poles)

    def test_default_gs(self, tmp_path, capsys):
        rc = main(["impulse", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "impulse_g0.3_alpha2.csv").exists()
        assert (tmp_path / "impulse_g0.8_alpha2.csv").exists()

    def test_non_power_of_two_rounded_up(self, tmp_path, capsys):
        rc = main(["impulse", "--g", "0.3", "--n", "3000", "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "rounded up" in captured.err
        sidecar = json.loads((tmp_path / "impulse_g0.3_alpha2.json").read_text())
        assert sidecar["n_samples"] == 4096

    def test_bad_g_exit_2(self, tmp_path, capsys):
        assert main(["impulse", "--g", "1.5", "--out", str(tmp_path)]) == 2

    def test_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["impulse", "--g", "0.3", "--out", str(out1)])
        main(["impulse", "--g", "0.3", "--out", str(out2)])
        assert (out1 / "impulse_g0.3_alpha2.csv").read_bytes() == \
            (out2 / "impulse_g0.3_alpha2.csv").read_bytes()

    def test_out_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LINEPORT_OUT", str(tmp_path / "envout"))
        rc = main(["impulse", "--g", "0.3", "--n", "1024"])
        assert rc == 0
        assert (tmp_path / "envout" / "impulse_g0.3_alpha2.csv").exists()

    def test_finds_each_pole_set_once(self, tmp_path, monkeypatch):
        """All four entries of H share one pole set: impulse finds it once per
        g, on ``find_poles`` alone."""
        find_poles = lineport.spectral.find_poles
        calls = []

        def counted(*args):
            calls.append(args)
            return find_poles(*args)

        def refused(*_):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(lineport.spectral, "find_poles", counted)
        monkeypatch.setattr(np, "roots", refused)
        rc = main(["impulse", "--g", "0.3", "--g", "0.8", "--n", "1024", "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 2


    def test_inverts_each_matrix_on_one_contour(self, tmp_path, monkeypatch):
        """The four entries of H share one Bromwich contour: impulse calls
        ``bromwich_ifft`` once per g, not once per entry."""
        bromwich_ifft = lineport.inversion.bromwich_ifft
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bromwich_ifft(*args, **kwargs)

        monkeypatch.setattr(lineport.inversion, "bromwich_ifft", counted)
        rc = main(["impulse", "--g", "0.3", "--g", "0.8", "--n", "1024", "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 2
        assert all(np.shape(num) == (4, 3) for num, *_ in calls)

    @pytest.mark.parametrize("gs", [["0.1"], ["0.999", "0.1"]], ids=["alone", "second"])
    def test_t_max_refused_before_writing(self, tmp_path, capsys, gs):
        """At alpha 0.01 and g 0.1 the far pole -1/(alpha g) lies beyond the
        contour's Nyquist frequency pi n/(4 t_max): exit 4 naming the pole and
        the --n that resolves it, no numpy warning, and no file, not even for
        an earlier g."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["impulse", *(a for g in gs for a in ("--g", g)), "--alpha", "0.01",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err == ("error: t_max = 62.8 lies outside the range where the contour at "
                       "n_samples = 16384 keeps the fastest pole (|s| = 1e+03) below its Nyquist "
                       "frequency pi n/(4 t_max), and itself (up to |s| = 5.79e+76), H and "
                       "exp(sigma t) in the float range; n_samples (--n) of at least 131072 "
                       "would resolve it\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["16384", "524288"], ids=["n-16384", "n-524288"])
    def test_slow_pole_inverted(self, tmp_path, capsys, n):
        """g 0.999999 has a pole decaying at 5e-7, which set the former FFT
        period and was refused; the period now follows t_max, and the IFFT
        matches the partial fractions to 1e-6 of each entry's peak."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["impulse", "--g", "0.999999", "--n", n, "--out", str(tmp_path)])
        assert rc == 0
        assert "Warning" not in capsys.readouterr().err
        stem = tmp_path / "impulse_g0.999999_alpha2"
        via_ifft, via_pf = (np.loadtxt(f"{stem}{suffix}.csv", delimiter=",", skiprows=1)
                            for suffix in ("", "_pf"))
        assert len(via_ifft) == int(n) // 4 + 1
        err = np.abs(via_ifft[:, 1:] - via_pf[:, 1:]).max(axis=0)
        assert (err <= 1e-6 * np.abs(via_pf[:, 1:]).max(axis=0)).all()

    def test_period_refused_before_markov_overflow(self, tmp_path, capsys):
        """At g = 1e-110 the Markov parameters of H overflow; the t_max range
        check refuses first, since no t_max resolves the far pole 5e109, so
        no numpy warning precedes the exit-4 message."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["impulse", "--g", "1e-110", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert "Warning" not in err
        assert "fastest pole (|s| = 5e+109)" in err
        assert err.endswith("no t_max (--t-max) or n_samples (--n) would; scale the poles "
                            "below that reach\n")
        assert not (tmp_path / "out").exists()

    def test_near_double_pole_reports_an_oracle_figure(self, tmp_path, capsys):
        """At a near-double pole the partial fractions still check the IFFT:
        no warning, a numeric figure within 1e-6 of the peak, the flag named,
        and a _pf.csv that is not the IFFT file."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["impulse", "--g", "0.9368188312392204", "--alpha", "0.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        stem = "impulse_g0.936819_alpha0.5"
        sidecar = json.loads((tmp_path / f"{stem}.json").read_text())
        assert 0.0 < sidecar["max_ifft_vs_partial_fractions"] <= 1e-6
        assert "near-double-root" in sidecar["pole_flags"]
        assert (tmp_path / f"{stem}_pf.csv").read_bytes() != \
            (tmp_path / f"{stem}.csv").read_bytes()

    def test_near_double_pole_checked_at_the_callers_n(self, tmp_path, capsys):
        """At --n 65536 and a t_max that 16384 samples refuse, the near-double
        run exits 0 at the caller's n with a numeric figure, and its _pf.csv
        is the oracle's own file, not the IFFT's."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["impulse", "--g", "0.9368188312392204", "--alpha", "0.5",
                       "--n", "65536", "--t-max", "10000", "--out", str(tmp_path)])
        assert rc == 0
        stem = "impulse_g0.936819_alpha0.5"
        assert (tmp_path / f"{stem}_pf.csv").read_bytes() != \
            (tmp_path / f"{stem}.csv").read_bytes()
        sidecar = json.loads((tmp_path / f"{stem}.json").read_text())
        assert sidecar["n_samples"] == 65536
        assert isinstance(sidecar["max_ifft_vs_partial_fractions"], float)

    def test_near_double_residues_written_as_null(self, tmp_path, capsys):
        """A near-double pair's residues are rounding noise of order 1e8, so
        a sidecar whose poles carry the near-double flag writes null for
        them; the other pole sets keep one [re, im] pair per pole and entry."""
        rc = main(["impulse", "--g", "0.9368188312392204", "--g", "0.3", "--alpha", "0.5",
                   "--n", "4096", "--out", str(tmp_path)])
        assert rc == 0
        near = json.loads((tmp_path / "impulse_g0.936819_alpha0.5.json").read_text())
        plain = json.loads((tmp_path / "impulse_g0.3_alpha0.5.json").read_text())
        assert near["pole_flags"] == ["near-double-root"] and near["residues"] is None
        assert "near-double-root" not in plain["pole_flags"]
        assert sorted(plain["residues"]) == ["h11", "h12", "h21", "h22"]
        assert all(np.shape(r) == (3, 2) for r in plain["residues"].values())


class TestSimulate:
    def test_decoupled_limit(self, tmp_path, capsys):
        net = write_netlist(tmp_path, couple=1e-6)
        rc = main(["simulate", str(net), "--ell", "2.0", "--c-per-len", "0.5",
                   "--t-max", "12.6", "--n-sections", "400", "--samples", "501",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["phi1_l2_discrepancy"] <= 1e-3
        header, data = read_csv(tmp_path / "trajectory_reduced.csv")
        assert header == ["t", "phi1", "q1", "q0", "v0"]
        assert data[0, 1] == 1.0  # default excitation

    @pytest.mark.parametrize("t_max, samples, warns", [
        pytest.param("5", "6", True, id="coarse"),
        pytest.param(repr(100 * 6 * 2 * np.pi / 2000), "101", False, id="driven-step")])
    def test_josephson_rk4_dt_warning(self, tmp_path, capsys, t_max, samples, warns):
        """RK4 on a Josephson circuit warns when dt exceeds the bound that
        the junction stiffness E_J/phi0^2 enters (0.0286 here), and stays
        silent at the driven benchmark's step 6 T_r / 2000."""
        (tmp_path / "jj.net").write_text(JOSEPHSON_NETLIST)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", str(tmp_path / "jj.net"), "--ell", "2.0",
                       "--c-per-len", "0.5", "--t-max", t_max, "--samples", samples,
                       "--n-sections", "100", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert any("does not resolve" in str(w.message) for w in caught) == warns

    def test_echo_violation_exit_4(self, tmp_path, capsys):
        net = write_netlist(tmp_path)
        rc = main(["simulate", str(net), "--ell", "1.0", "--c-per-len", "1.0",
                   "--t-max", "20.0", "--length", "5.0", "--out", str(tmp_path)])
        assert rc == 4
        assert "length > 10" in capsys.readouterr().err

    def test_profile_default_length_has_no_echo(self, tmp_path, capsys):
        # the default length must keep the forward half of a line pulse from
        # echoing off the open far end inside the window
        net = write_netlist(tmp_path)
        x = np.linspace(0.0, 40.0, 4001)
        phi0 = 0.5 * np.exp(-((x - 8.0) / 1.5) ** 2)
        profile = tmp_path / "pulse.csv"
        np.savetxt(profile, np.column_stack([x, phi0]), fmt="%.17g", delimiter=",",
                   header="x,phi0", comments="")
        rc = main(["simulate", str(net), "--ell", "2.0", "--c-per-len", "0.5",
                   "--t-max", "37.7", "--n-sections", "1000",
                   "--phi0-csv", str(profile), "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["phi1_l2_discrepancy"] <= 0.01

    def test_coupled_against_ladder(self, tmp_path, capsys):
        net = write_netlist(tmp_path)  # g = 0.3 with C_r = 1
        rc = main(["simulate", str(net), "--ell", "2.0", "--c-per-len", "0.5",
                   "--t-max", "31.4", "--n-sections", "1500", "--samples", "629",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["phi1_l2_discrepancy"] <= 0.01
        assert summary["ladder_energy_drift"] <= 0.01


SIM_FLAGS = ["--ell", "2.0", "--c-per-len", "0.5", "--t-max", "5.0"]

JOSEPHSON_NETLIST = """\
C 1 3 1.0
J 1 2 0.5 1.0
C 2 3 1.0
L 2 3 1.0
COUPLE 0.4
"""

# JOSEPHSON_NETLIST's topology with its values C13, E_J, phi0, C23, L23, C_c filled in
VALUES_NETLIST = "C 1 3 {}\nJ 1 2 {} {}\nC 2 3 {}\nL 2 3 {}\nCOUPLE {}\n"


@pytest.mark.parametrize("argv, names", [
    pytest.param(["reduce", "{tmp}/missing.net"], "missing.net", id="reduce-missing-netlist"),
    pytest.param(["simulate", "{tmp}/missing.net", *SIM_FLAGS], "missing.net",
                 id="simulate-missing-netlist"),
    pytest.param(["reduce", "{tmp}/binary.net"], "binary.net", id="non-utf8-netlist"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{tmp}/nope.csv"],
                 "nope.csv", id="missing-phi0-csv"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0-csv", "{tmp}/nope.csv"],
                 "nope.csv", id="missing-q0-csv"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{net}"], "lc.net",
                 id="malformed-phi0-csv"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0-csv", "{tmp}/one.csv"],
                 "needs two columns", id="one-column-q0-csv"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--samples", "0"],
                 "--samples must be at least 2", id="samples-0"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--samples", "1"],
                 "--samples must be at least 2", id="samples-1"),
    pytest.param(["poles", "--g-start", "0.5", "--g-stop", "0.4"], "--g-stop >= --g-start",
                 id="empty-g-grid"),
    pytest.param(["impulse", "--n", "-5"], "--n must be at least 1024, got -5", id="n-negative"),
    pytest.param(["impulse", "--n", "100"], "--n must be at least 1024, got 100", id="n-100"),
    pytest.param(["reduce", "{tmp}/cinf.net"],
                 "line 1: element value must be finite, got 'inf'", id="capacitor-inf"),
    pytest.param(["reduce", "{tmp}/linf.net"],
                 "line 2: element value must be finite, got 'inf'", id="inductor-inf"),
    pytest.param(["simulate", "{tmp}/linf.net", *SIM_FLAGS], "line 2",
                 id="simulate-inductor-inf"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--n-sections", "5"],
                 "--n-sections must be at least 100, got 5", id="n-sections-5"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi", "1,2,3"],
                 "--phi gives 3 values for 1 circuit nodes; give at most 1",
                 id="phi-too-long"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q", "1,2,3"],
                 "--q gives 3 values for 1 circuit nodes; give at most 1",
                 id="q-too-long"),
    pytest.param(["poles", "--alpha", "inf"],
                 "argument --alpha: must be positive and finite, got inf", id="poles-alpha-inf"),
    pytest.param(["poles", "--alpha", "nan"],
                 "argument --alpha: must be positive and finite, got nan", id="poles-alpha-nan"),
    pytest.param(["impulse", "--alpha", "inf"],
                 "argument --alpha: must be positive and finite, got inf",
                 id="impulse-alpha-inf"),
    pytest.param(["impulse", "--omega-r", "inf"],
                 "argument --omega-r: must be positive and finite, got inf",
                 id="impulse-omega-r-inf"),
    pytest.param(["simulate", "{net}", "--ell", "2.0", "--c-per-len", "0.5", "--t-max", "inf"],
                 "argument --t-max: must be positive and finite, got inf",
                 id="simulate-t-max-inf"),
    pytest.param(["simulate", "{net}", "--ell", "nan", "--c-per-len", "0.5", "--t-max", "5.0"],
                 "argument --ell: must be positive and finite, got nan", id="simulate-ell-nan"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0", "inf"],
                 "argument --q0: must be finite, got inf", id="q0-inf"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0", "nan"],
                 "argument --q0: must be finite, got nan", id="q0-nan"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi", "inf"],
                 "--phi values must be finite, got 'inf'", id="phi-inf"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q", "nan"],
                 "--q values must be finite, got 'nan'", id="q-nan"),
    pytest.param(["simulate", "{tmp}/jj.net", *SIM_FLAGS, "--phi", "inf,0"],
                 "--phi values must be finite, got 'inf,0'", id="josephson-phi-inf"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{tmp}/gap.csv"],
                 "gap.csv': first column must be uniform", id="profile-non-uniform-x"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0-csv", "{tmp}/repeat.csv"],
                 "repeat.csv': first column must be strictly increasing",
                 id="profile-repeated-x"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{tmp}/nan.csv"],
                 "nan.csv': value column must be finite",
                 id="profile-nan-value"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{tmp}/two.csv"],
                 "two.csv' has 2 rows; a profile needs at least 3", id="profile-two-rows"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--phi0-csv", "{tmp}/gauss.csv",
                  "--q0-csv", "{tmp}/half.csv"],
                 "gauss.csv' (4 rows, dx 1) and", id="profiles-on-two-grids"),
    pytest.param(["poles", "--alpha", "junk"],
                 "argument --alpha: expected a number, got 'junk'", id="poles-alpha-junk"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--q0", "junk"],
                 "argument --q0: expected a number, got 'junk'", id="q0-junk"),
    pytest.param(["poles", "--g-step", "1e-300"],
                 "--g-step 1e-300 gives more than 1000000 g points", id="g-step-beyond-cap"),
    pytest.param(["impulse", "--n", "99999999999999999999"],
                 "--n must be at most 1048576, got 99999999999999999999", id="n-beyond-cap"),
    pytest.param(["reduce", "{tmp}/cabc.net"], "line 1: bad element value 'abc'",
                 id="bad-element-value"),
    pytest.param(["reduce", "{tmp}/couple2.net"], "line 3: COUPLE line needs a single value",
                 id="couple-two-values"),
    pytest.param(["reduce", "{tmp}/ground.net"],
                 "line 4: GROUND line needs 'auto' or a node index", id="bare-ground"),
    pytest.param(["reduce", "{tmp}/couple.net"],
                 "netlist must reference at least nodes 1 and ground", id="couple-only"),
])
def test_input_errors_exit_2(tmp_path, capsys, argv, names):
    net = write_netlist(tmp_path)
    (tmp_path / "cinf.net").write_text("C 1 2 inf\nL 1 2 1.0\nCOUPLE 0.5\n")
    (tmp_path / "linf.net").write_text("C 1 2 1.0\nL 1 2 inf\nCOUPLE 0.5\n")
    (tmp_path / "one.csv").write_text("x\n0\n1\n2\n")
    (tmp_path / "binary.net").write_bytes(b"\xff\xfeC 1 2 1.0\n")
    (tmp_path / "jj.net").write_text(JOSEPHSON_NETLIST)
    (tmp_path / "gap.csv").write_text("x,phi0\n0,0\n1,1\n3,0\n4,0\n")
    (tmp_path / "repeat.csv").write_text("x,q0\n0,0\n1,1\n1,0\n2,0\n")
    (tmp_path / "nan.csv").write_text("x,phi0\n0,0\n1,nan\n2,0\n3,0\n")
    (tmp_path / "two.csv").write_text("x,phi0\n0,0\n1,1\n")
    (tmp_path / "gauss.csv").write_text("x,phi0\n0,0\n1,1\n2,0\n3,0\n")
    (tmp_path / "half.csv").write_text("x,q0\n0,0\n0.5,1\n1,0\n1.5,0\n")
    (tmp_path / "cabc.net").write_text("C 1 2 abc\nL 1 2 1.0\nCOUPLE 0.5\n")
    (tmp_path / "couple2.net").write_text("C 1 2 1.0\nL 1 2 1.0\nCOUPLE 1 2\n")
    (tmp_path / "ground.net").write_text("C 1 2 1.0\nL 1 2 1.0\nCOUPLE 0.5\nGROUND\n")
    (tmp_path / "couple.net").write_text("COUPLE 1.0\n")
    argv = [a.format(tmp=tmp_path, net=net) for a in argv]
    try:  # argparse rejects a flag value by raising SystemExit(2)
        rc = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert names in err


@pytest.mark.parametrize("flag, cap, value", [
    pytest.param("--samples", MAX_SAMPLES, MAX_SAMPLES + 1, id="samples-cap-plus-1"),
    pytest.param("--samples", MAX_SAMPLES, 10 ** 20, id="samples-1e20"),
    pytest.param("--n-sections", MAX_LADDER_SECTIONS, MAX_LADDER_SECTIONS + 1,
                 id="n-sections-cap-plus-1"),
    pytest.param("--n-sections", MAX_LADDER_SECTIONS, 10 ** 20, id="n-sections-1e20"),
])
def test_simulate_counts_beyond_cap_refused_first(tmp_path, capsys, monkeypatch, flag, cap,
                                                  value):
    """A count beyond its cap exits 2 naming the flag and the cap, before the
    netlist is read: no traceback, no output directory, no allocation."""
    def fail(path):
        raise AssertionError("netlist read before the counts were checked")
    monkeypatch.setattr(lineport.cli, "parse_netlist_file", fail)
    out = tmp_path / "out"
    rc = main(["simulate", str(write_netlist(tmp_path)), *SIM_FLAGS, flag, str(value),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert f"{flag} must be at most {cap}, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, names", [
    pytest.param(["impulse", "--omega-r", "1e-300", "--n", "1024"],
                 "omega_r 1e-300 lies outside", id="omega-r-tiny"),
    pytest.param(["impulse", "--omega-r", "1e300", "--n", "1024"],
                 "omega_r 1e+300 lies outside", id="omega-r-huge"),
    pytest.param(["simulate", "{net}", "--ell", "1e-300", "--c-per-len", "1e-300",
                  "--t-max", "10", "--samples", "51", "--n-sections", "100"],
                 "--ell 1e-300 and --c-per-len 1e-300", id="line-speed-overflow"),
    pytest.param(["simulate", "{net}", *SIM_FLAGS, "--samples", "51", "--n-sections", "100",
                  "--phi=1e300"], "ladder integration diverged; reduce the initial state",
                 id="lc-phi-huge"),
    pytest.param(["simulate", "{tmp}/jj.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100", "--q=1e308"],
                 "reduce the initial state (size 1e+308) or dt", id="josephson-q-huge"),
    pytest.param(["simulate", "{tmp}/jj.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100", "--phi=1e308,-1e308"],
                 "junction flux difference overflows at flux size 1e+308; reduce the "
                 "initial state", id="josephson-phi-diff-overflow"),
    pytest.param(["reduce", "{tmp}/cbig.net"], "the capacitances overflow; rescale the units",
                 id="capacitance-sum-overflow"),
    pytest.param(["reduce", "{tmp}/ctiny.net"], "rescale the capacitance units",
                 id="capacitance-inverse-overflow"),
    pytest.param(["reduce", "{tmp}/csmall.net"], "rescale the capacitance units",
                 id="coupling-product-overflow"),
    pytest.param(["reduce", "{net}", "--z-c", "5e-324"], "--z-c", id="z-c-tau-underflow"),
    pytest.param(["poles", "--alpha", "1e-300"], "raise it (alpha g in H's denominator) to "
                 "at least 2.17e-154", id="poles-alpha-1e-300"),
    pytest.param(["poles", "--alpha", "1e-200"], "raise it (alpha g in H's denominator) to "
                 "at least 2.17e-154", id="poles-alpha-1e-200"),
    pytest.param(["poles", "--alpha", "1e308"], "take the Newton step beyond the float range",
                 id="poles-alpha-1e308"),
    # found by test_fuzz_laplace_flags with numpy warnings as errors: extreme
    # alpha and t_max values, refused without a warning on the way
    pytest.param(["poles", "--alpha", "1.0072084518267304e+308", "--g-start", "0.875",
                  "--g-stop", "0.875"], "beyond the float range; lower alpha g",
                 id="poles-alpha-far-root-need-overflow"),
    pytest.param(["impulse", "--t-max=8.98846567431158e+307", "--n=1024"],
                 "a t_max (--t-max) of at most 526 would", id="impulse-t-max-9e307"),
    pytest.param(["impulse", "--t-max=5e-324"], "a t_max (--t-max) of at least 6.74e-73",
                 id="impulse-t-max-5e-324"),
    pytest.param(["impulse", "--alpha=5.2e305"], "a t_max (--t-max) of at least 9.37e+03",
                 id="impulse-alpha-5.2e305"),
    # a coefficient of H near the float maximum, which the partial fractions'
    # derivative of den would overflow once the contour accepts the t_max
    pytest.param(["impulse", "--alpha", "1.7e308", "--g", "1e-300", "--omega-r", "1e-100",
                  "--n", "1024"], "H(s) is not representable in physical units",
                 id="impulse-coefficient-near-float-max"),
    # H's denominator is cubic for g > 0: a leading coefficient alpha g/omega_r^3
    # that underflows to 0 would make H look improper (exit 3)
    pytest.param(["impulse", "--alpha", "1e-50", "--g", "0.9999999999999999", "--omega-r",
                  "1e100"], "underflows to 0 at alpha=1e-50, g=1, omega_r=1e+100; raise alpha "
                 "(--alpha) or lower omega_r (--omega-r)",
                 id="impulse-leading-coefficient-underflow"),
    pytest.param(["impulse", "--alpha", "1e200", "--g", "1e-300", "--omega-r", "1e100",
                  "--n", "1024"], "raise alpha (--alpha) or lower omega_r (--omega-r)",
                 id="impulse-leading-coefficient-underflow-tiny-g"),
    pytest.param(["impulse", "--alpha", "1e-200", "--g", "1e-200", "--n", "1024"],
                 "omega_r=1; raise alpha (--alpha)\n", id="impulse-alpha-g-underflow"),
    # 1 - g rounds to 1, so the pair sits on the imaginary axis, where
    # Routh-Hurwitz puts no pole: a root with Re >= 0 is refused
    pytest.param(["poles", "--g-start", "1e-17", "--g-stop", "1e-17"], "at alpha = 0.5, "
                 "g = 1e-17 has Re >= 0: 1 - g rounds to within a few ulps of 1, which cancels "
                 "the cubic's stability margin alpha g (1 - (1 - g)); raise g to 1e-14 or more",
                 id="poles-g-1e-17"),
    # element values whose stiffness, time constant or ladder mass matrix
    # leaves the float range; each once exited 1, printed a numpy warning or
    # blamed the initial state
    pytest.param(["simulate", "{tmp}/phi0tiny.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "junction stiffness E_J/phi0^2 is not finite; "
                 "rescale the junction units", id="junction-stiffness-overflow"),
    pytest.param(["simulate", "{tmp}/lsum.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "inductor stiffness 1/L is not finite; rescale "
                 "the inductance units", id="inductor-stiffness-sum-overflow"),
    pytest.param(["simulate", "{tmp}/ltiny.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "inductor stiffness 1/L is not finite; rescale "
                 "the inductance units", id="inductor-stiffness-inverse-overflow"),
    pytest.param(["simulate", "{tmp}/ccbig.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "ladder mass matrix is not positive definite in "
                 "float64: capacitances up to 7.87e+15", id="ladder-head-singular"),
    pytest.param(["simulate", "{tmp}/chuge.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "ladder mass matrix is not positive definite in "
                 "float64: capacitances up to inf", id="ladder-head-overflow"),
    pytest.param(["reduce", "{tmp}/cplarge.net"], "tau = Z_c C_p = inf at Z_c = 50",
                 id="tau-overflow"),
    # refusals that simulate reaches name a value that simulate can set: the
    # capacitances or its line flags for tau, and for the ladder, whose step
    # follows from the section count, --n-sections
    pytest.param(["simulate", "{tmp}/cphuge.net", "--ell", "200", "--c-per-len", "0.005",
                  "--t-max", "5", "--samples", "51", "--n-sections", "100"],
                 "error: tau = Z_c C_p = inf at Z_c = 200, C_p = 8.5e+307 is not a positive "
                 "finite time; rescale the capacitances or the line impedance (--z-c, or "
                 "--ell/--c-per-len)\n", id="simulate-tau-overflow"),
    pytest.param(["simulate", "{tmp}/ejbig.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "error: ladder energy drift 0.0177 exceeds 0.01; "
                 "raise n_sections (--n-sections)\n", id="ladder-energy-drift"),
    pytest.param(["simulate", "{tmp}/lsmall.net", *SIM_FLAGS, "--samples", "51",
                  "--n-sections", "100"], "error: ladder integration diverged; raise "
                 "n_sections (--n-sections)\n", id="ladder-diverged"),
])
def test_unrepresentable_values_exit_4(tmp_path, capsys, argv, names):
    """Valid values whose consequences overflow, or that the ladder cannot
    step: exit 4, naming the flag, the elements or the initial state as the
    cause, with no numpy RuntimeWarning on the way (an error under the test
    settings)."""
    net = write_netlist(tmp_path)
    (tmp_path / "jj.net").write_text(JOSEPHSON_NETLIST)
    (tmp_path / "cbig.net").write_text("C 1 2 1e308\nC 1 2 1e308\nL 1 2 1.0\nCOUPLE 0.5\n")
    (tmp_path / "ctiny.net").write_text(CTINY_NETLIST)
    (tmp_path / "csmall.net").write_text(CSMALL_NETLIST)
    (tmp_path / "phi0tiny.net").write_text("C 1 2 1.0\nJ 1 2 1.0 1e-200\nCOUPLE 0.5\n")
    (tmp_path / "lsum.net").write_text("C 1 2 1.0\nL 1 2 1e-308\nL 1 2 1e-308\nCOUPLE 0.5\n")
    (tmp_path / "ltiny.net").write_text("C 1 2 1.0\nL 1 2 1e-320\nCOUPLE 0.5\n")
    (tmp_path / "ccbig.net").write_text(VALUES_NETLIST.format(1, 1, 1, 1, 1, 7865809183042824.0))
    (tmp_path / "chuge.net").write_text(VALUES_NETLIST.format(1.3931231832285764e+308, 1, 1, 1,
                                                              1, 4.0456995163373943e+307))
    (tmp_path / "cplarge.net").write_text(VALUES_NETLIST.format(1.73251876725969e+307, 1, 1, 1,
                                                                1, 4.536900429268128e+306))
    (tmp_path / "cphuge.net").write_text("C 1 2 1.7e308\nL 1 2 1.0\nCOUPLE 1.7e308\n")
    (tmp_path / "ejbig.net").write_text(VALUES_NETLIST.format(1, 300, 1, 1, 1,
                                                              0.42857142857142855))
    (tmp_path / "lsmall.net").write_text(LC_NETLIST.format(couple=0.42857142857142855)
                                         .replace("L 1 2 1.0", "L 1 2 1e-6"))
    argv = [a.format(tmp=tmp_path, net=net) for a in argv]
    rc = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Traceback" not in err
    assert names in err
    assert not (tmp_path / "out" / "reduced_model.json").exists()


@pytest.mark.parametrize("alpha", ["1e-20", "1e-28", "1e-56", "1e-48", "1e-100"],
                         ids=lambda alpha: f"poles-alpha-{alpha}")
def test_far_root_alphas_exit_0(tmp_path, capsys, alpha):
    """alphas whose far root -1/(alpha g) once left the other two roots
    unresolved (a backward residual above 1e-12 at 1e-20, 1e-28 and 1e-56, a
    pair at Re >= 0 at 1e-48 and 1e-100): deflating that root keeps the
    pair's real part, about -alpha g^2/2, so every pole written has Re < 0
    and a backward residual of at most 1e-12, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["poles", "--alpha", alpha, "--out", str(tmp_path)])
    assert rc == 0
    _, data = read_csv(tmp_path / f"poles_alpha{float(alpha):g}.csv")
    s = data[:, 1::2] + 1j * data[:, 2::2]
    assert np.all(s.real < 0.0)
    coeffs = lineport.spectral.char_poly(data[:, 0], float(alpha))
    assert lineport.spectral._backward_residuals(coeffs, s).max() <= 1e-12


def test_poles_refusal_writes_no_file(tmp_path, capsys):
    """A refused alpha after a good one: every locus is tracked before the
    first file is written, and no numpy warning escapes the refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["poles", "--alpha", "1", "--alpha", "1e-300", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("netlist", [CTINY_NETLIST, CSMALL_NETLIST],
                         ids=["capacitance-inverse-overflow", "coupling-product-overflow"])
def test_overflow_refusal_raises_no_runtime_warning(tmp_path, capsys, netlist):
    """The exit-4 refusal of an overflowing reduced model is its message
    alone: the checked arithmetic lets no numpy RuntimeWarning escape."""
    path = tmp_path / "c.net"
    path.write_text(netlist)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["reduce", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Warning" not in err
    assert "rescale the capacitance units" in err


@pytest.mark.parametrize("name, netlist, state, message", [
    pytest.param("lc.net", LC_NETLIST.format(couple=0.42857142857142855), "--phi=1e300",
                 "reduce the initial state: its energy is not finite", id="lc-phi-huge"),
    pytest.param("jj.net", JOSEPHSON_NETLIST, "--q=1e308,0",
                 "reduce the initial state (size 1e+308) or dt", id="josephson-q-huge"),
    # the exact stepper's doubling scan overflows part way through the run;
    # it has no step error, so the initial state alone is to blame
    pytest.param("lc.net", LC_NETLIST.format(couple=0.42857142857142855),
                 "--phi=1.6659798201792035e+308",
                 "integration diverged at t=1.7: non-finite state; "
                 "reduce the initial state (size 1.67e+308)", id="lc-phi-expm-overflow"),
])
def test_simulate_refusal_raises_no_runtime_warning(tmp_path, capsys, name, netlist,
                                                    state, message):
    """A huge initial state is refused with the exit-4 message alone, which
    names the state, not dt alone: the checked energy and RK4 arithmetic lets
    no numpy RuntimeWarning escape."""
    path = tmp_path / name
    path.write_text(netlist)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", str(path), *SIM_FLAGS, "--samples", "51",
                   "--n-sections", "100", state, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Warning" not in err
    assert message in err
    assert "reduce dt" not in err


TINY_STEP = "squares below the smallest normal float64, which needs dt >= 1.49e-154; "


@pytest.mark.parametrize("netlist, t_max, sections, message", [
    *(pytest.param(netlist, "1e-200", sections, f"dt={dt} {TINY_STEP}raise t_max (--t-max) "
                   f"to 1e{power} or more\n", id=f"{name}-tiny-{sections}")
      for name, netlist in (("lc", LC_NETLIST.format(couple=0.42857142857142855)),
                            ("josephson", JOSEPHSON_NETLIST))
      for sections, dt, power in ((100, "2.78e-203", -151), (1000, "2.79e-204", -150),
                                  (10000, "2.8e-205", -149))),
    # only on the LC circuit: a Josephson circuit's RK4 overflows first
    pytest.param(LC_NETLIST.format(couple=0.42857142857142855), "1e200", 100,
                 "dt=2.78e+197 squares beyond the largest float64, which needs "
                 "dt <= 1.34e+154; lower t_max (--t-max) to 1e156 or less\n", id="lc-huge-100")])
def test_simulate_refuses_a_ladder_step_whose_square_is_not_normal(
        tmp_path, capsys, netlist, t_max, sections, message):
    """The ladder step follows t_max; one that squares to a subnormal, 0 or
    inf would zero the kicks and break the energy, which divides by dt^2.
    It is refused before stepping with exit 4, naming --t-max and the power
    of ten to take it to, not --n-sections, which only shortens the step;
    no result file is written and no numpy warning escapes."""
    path = tmp_path / "circuit.net"
    path.write_text(netlist)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", str(path), "--ell", "2", "--c-per-len", "0.5", "--t-max", t_max,
                   "--samples", "11", "--n-sections", str(sections),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == f"error: ladder step {message}"
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_ladder_sections_that_underflow(tmp_path, capsys):
    """The default length of t_max 1e-318 over 10^6 sections gives sections
    of 0, which the ladder divides by: exit 4 before that division, naming
    --length and the bound, with no traceback and no result file."""
    path = tmp_path / "lc.net"
    path.write_text(LC_NETLIST.format(couple=0.42857142857142855))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", str(path), "--ell", "2", "--c-per-len", "0.5",
                   "--t-max", "1e-318", "--samples", "2", "--n-sections", "1000000",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == ("error: ladder sections of length 5.6e-319 / 1000000 underflow to 0, below "
                   "the 1.49e-154 whose leapfrog step dx/v_p squares to a normal float64; "
                   "lengthen the line (--length, which --t-max sets by default) to at least "
                   "1.49e-148\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def triangle_profile(height):
    """A triangular profile of ``height`` on x in [0, 4], sampled every 0.25."""
    values = (height * max(0.0, 1.0 - abs(0.25 * k - 2.0) / 2.0) for k in range(25))
    return "x,value\n" + "".join(f"{0.25 * k!r},{v!r}\n" for k, v in enumerate(values))


@pytest.mark.parametrize("flag, height, message", [
    pytest.param("--phi0-csv", 1e308, "--phi0-csv: the line profiles' source e0 and ladder "
                 "energy are not finite in float64 with the circuit at rest; scale the profile "
                 "values by 1e-154 or less", id="phi0-e0-overflow"),
    pytest.param("--phi0-csv", 5e307, "--phi0-csv: the line profiles' ladder energy is not "
                 "finite in float64 with the circuit at rest; scale the profile values by "
                 "1e-154 or less", id="phi0-energy-overflow"),
    pytest.param("--q0-csv", 1e308, "--q0-csv: the line profiles' source e0 and ladder energy "
                 "are not finite in float64 with the circuit at rest; scale the profile values "
                 "by 1e-155 or less", id="q0-e0-overflow"),
])
def test_simulate_refuses_huge_line_profile(tmp_path, capsys, monkeypatch, flag, height,
                                            message):
    """A line profile whose source e0 or ladder energy overflows, with a zero
    circuit state: exit 4 before any stepping, naming the flag and a scale;
    the profile scaled by it runs."""
    import lineport.cli as cli
    net = tmp_path / "lc.net"
    net.write_text(LC_NETLIST.format(couple=0.42857142857142855))
    argv = ["simulate", str(net), *SIM_FLAGS, "--samples", "501", "--n-sections", "100",
            flag, str(tmp_path / "profile.csv"), "--out", str(tmp_path / "out")]
    (tmp_path / "profile.csv").write_text(triangle_profile(height))
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("stepped a refused profile"))
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 4
    assert "Warning" not in err
    assert message in err
    scale = float(err.rsplit("by ", 1)[1].split()[0])
    (tmp_path / "profile.csv").write_text(triangle_profile(height * scale))
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("name, netlist, state", [
    pytest.param("jj.net", JOSEPHSON_NETLIST, "--phi=5.6144407542332695e+270,199.0",
                 id="josephson-squares-overflow"),
    pytest.param("lc.net", LC_NETLIST.format(couple=0.42857142857142855),
                 "--phi=2.225073858507e-311", id="lc-subnormal-peak"),
])
def test_simulate_l2_figure_of_extreme_flux(tmp_path, capsys, name, netlist, state):
    """A flux whose column squares overflow or underflow: the run raises no
    RuntimeWarning and either refuses or reports the finite L2 figure that
    the two trajectory files give."""
    path = tmp_path / name
    path.write_text(netlist)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", str(path), *SIM_FLAGS, "--samples", "51", "--n-sections", "100",
                   state, "--out", str(out)])
    assert rc in (0, 4), capsys.readouterr().err
    if rc == 0:
        l2 = json.loads((out / "simulate_summary.json").read_text())["phi1_l2_discrepancy"]
        reduced, ladder = (np.loadtxt(out / f"trajectory_{kind}.csv", delimiter=",",
                                      skiprows=1)[:, 1] for kind in ("reduced", "ladder"))
        peak = np.abs(reduced).max()
        want = np.linalg.norm((ladder - reduced) / peak) / np.linalg.norm(reduced / peak)
        assert np.isfinite(l2)
        assert l2 == pytest.approx(want, rel=1e-12)


def test_default_sidecars_are_finite_json(tmp_path, capsys):
    """The JSON sidecars of the default runs hold no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    net = write_netlist(tmp_path)
    for argv in (["reduce", str(net)], ["poles"], ["impulse"],
                 ["simulate", str(net), *SIM_FLAGS]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        sidecars = sorted(out.glob("*.json"))
        assert sidecars, argv
        for path in sidecars:
            json.loads(path.read_text(), parse_constant=refuse)


def test_result_files_equal_their_values_rerendered(tmp_path, capsys):
    """Each CSV of `poles`, `impulse` and `simulate` is byte for byte its
    parsed values printed again with ``FLOAT_FMT % v``: %.17g round-trips,
    so this checks the writer's kernel without trusting it."""
    net = write_netlist(tmp_path)
    for argv in (["poles"], ["impulse", "--n", "1024"], ["simulate", str(net), *SIM_FLAGS]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert len(paths) == 3 + 4 + 2
    for path in paths:
        header, data = read_csv(path)
        row_fmt = ",".join([FLOAT_FMT] * data.shape[1]) + "\n"
        rows = "".join(row_fmt % tuple(row) for row in data.tolist())
        assert path.read_bytes() == f"{','.join(header)}\n{rows}".encode(), path.name


def test_shifted_profile_exit_2(tmp_path, capsys):
    """A profile file whose x column does not start at the port is refused,
    not read as if it did."""
    net = write_netlist(tmp_path)
    profile = tmp_path / "shifted.csv"
    profile.write_text("x,phi0\n5,0\n6,1\n7,0\n8,0\n")
    rc = main(["simulate", str(net), *SIM_FLAGS, "--phi0-csv", str(profile),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "shifted.csv' starts at x = 5" in err and "shift its x column by -5" in err


def test_simulate_reads_e0_at_the_last_sample(tmp_path, capsys):
    """At 20001 samples over t_max 3 the output grid stops an ulp past the
    source's own t0 + dt k: the run reads e0 there rather than refusing the
    last sample as outside the signal."""
    net = write_netlist(tmp_path)
    (tmp_path / "pulse.csv").write_text(triangle_profile(0.5))
    rc = main(["simulate", str(net), "--ell", "2", "--c-per-len", "0.5", "--t-max", "3",
               "--samples", "20001", "--n-sections", "100",
               "--phi0-csv", str(tmp_path / "pulse.csv"), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("flag, names", [
    pytest.param(["--alpha", "1e-9"],
                 ["(|s| = 3.33e+09)", "a t_max (--t-max) of at most 3.82e-06"], id="alpha-1e-9"),
    pytest.param(["--alpha", "1e-100", "--g", "0.113"],
                 ["(|s| = 8.85e+100)", "(up to |s| = 5.79e+76)",
                  "scale the poles below that reach"], id="alpha-1e-100")])
def test_impulse_fastest_pole_exit_4(tmp_path, capsys, flag, names):
    """A far pole -1/(alpha g) beyond the contour's Nyquist frequency is
    refused by its own |s|, with a corrective value and before any numpy
    RuntimeWarning; no decay of -0 from the pair at Re = +0 is named."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["impulse", *flag, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Warning" not in err and "-0 " not in err
    assert all(name in err for name in names), err


# In a fresh interpreter, because this test process has loaded scipy already;
# with None in its sys.modules slot, any import of scipy raises.
SCIPY_FREE_RUN = """\
import sys
sys.modules["scipy"] = None
import lineport.cli
lc, jj, out = sys.argv[1:]
sim = ["--ell", "2.0", "--c-per-len", "0.5", "--t-max", "5.0", "--samples", "51",
       "--n-sections", "100"]
for argv in (["reduce", lc], ["poles", "--g-step", "0.01"], ["impulse", "--n", "1024"],
             ["simulate", lc, *sim], ["simulate", jj, *sim]):
    assert lineport.cli.main([*argv, "--out", out]) == 0, argv
"""


def run_fresh_interpreter(*args):
    """Run ``python *args`` in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_commands_load_no_scipy(tmp_path):
    """`reduce`, `poles`, `impulse` and `simulate`, on the LC and the
    Josephson netlist, run on numpy alone."""
    jj = tmp_path / "jj.net"
    jj.write_text(JOSEPHSON_NETLIST)
    proc = run_fresh_interpreter("-c", SCIPY_FREE_RUN, write_netlist(tmp_path), jj,
                                 tmp_path / "out")
    assert proc.returncode == 0, proc.stderr


LADDER_SCIPY_FREE_RUN = """\
import sys
sys.modules["scipy"] = None
import numpy as np
import lineport
topo = lineport.parse_netlist_file(sys.argv[1])
line = lineport.line_params(2.0, 0.5)
system = lineport.LadderSystem(topo, line, 100, 10.0)
lineport.propagator_of(system, 1.0, dt=0.01)
initial = lineport.ReducedState(phi=[1.0], q=[0.0], q0=0.0)
grid = np.linspace(0.0, 5.0, 51)
lineport.ladder_oracle(line, 100, 10.0, topo, initial, grid)
model = lineport.derive_reduced_model(topo, line.z_c)
k = lineport.stiffness_matrix(topo)
lineport.integrate(lineport.assemble_rhs(model, topo), initial, grid, method="expm")
lineport.langevin_form(model, topo, None, initial, grid)
mass = lineport.reduce_ground(lineport.build_capacitance_matrix(topo), topo.ground)
lineport.propagator_of(lineport.StateSpace.closed(mass, k), 1.0)
lineport.propagator_of(lineport.StateSpace.reduced(model, k, port_flux=True), 1.0)
"""


def test_library_paths_load_no_scipy(tmp_path):
    """`LadderSystem`, its leapfrog propagator, `ladder_oracle`, the exact
    expm stepper of `integrate`, `langevin_form` and the propagators of both
    lumped systems run on numpy alone."""
    proc = run_fresh_interpreter("-c", LADDER_SCIPY_FREE_RUN, write_netlist(tmp_path))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, code", [
    pytest.param(["reduce", "{net}"], 0, id="0-reduce"),
    pytest.param(["impulse", "--g", "1.5"], 2, id="2-bad-g"),
    pytest.param(["reduce", "{tmp}/island.net"], 3, id="3-floating-island"),
    pytest.param(["poles", "--alpha", "1e-300"], 4, id="4-tiny-alpha")])
def test_process_exit_status(tmp_path, argv, code):
    """The process exits with the status that ``main`` returns."""
    (tmp_path / "island.net").write_text("C 1 4 1.0\nC 2 3 0.5\nL 1 4 1.0\nL 2 4 1.0\n"
                                         "L 3 4 1.0\nCOUPLE 1.0\n")
    argv = [a.format(tmp=tmp_path, net=write_netlist(tmp_path)) for a in argv]
    proc = run_fresh_interpreter("-m", "lineport.cli", *argv, "--out", tmp_path / "out")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_codes_match_readme():
    """Each error class's ``exit_code`` is the code README's table gives it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {name: int(code) for code, name in re.findall(r"^\| `(\d)` \| `(\w+)`", readme,
                                                          flags=re.MULTILINE)}
    classes = {name: getattr(lineport.errors, name) for name in dir(lineport.errors)
               if isinstance(getattr(lineport.errors, name), type)}
    assert table == {name: cls.exit_code for name, cls in classes.items()
                     if issubclass(cls, lineport.errors.LineportError)}


# --- fuzzing simulate's initial-state inputs --------------------------------
# Each draw is (text, defective); a defective input must exit exactly 2. About
# half the cases draw only well-formed inputs, so the integrators run too.

FINITE_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), False))
NON_FINITE_TOKENS = st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity"]).map(
    lambda t: (t, True))
JUNK_TOKENS = st.sampled_from(["abc", "1e", "0x10", "1.2.3", "+-1"]).map(lambda t: (t, True))
ANY_TOKENS = st.one_of(FINITE_TOKENS, NON_FINITE_TOKENS, JUNK_TOKENS)


@st.composite
def vectors(draw, tokens, n_nodes, clean):
    """--phi/--q text of 1 to n_nodes (+ 1 unless clean) values; longer than
    n_nodes is defective."""
    items = draw(st.lists(tokens, min_size=1, max_size=n_nodes if clean else n_nodes + 1))
    return ",".join(t for t, _ in items), len(items) > n_nodes or any(b for _, b in items)


@st.composite
def profiles(draw, clean):
    """A small (x, value) profile CSV; non-uniform or repeated x, or a nan, is defective."""
    n = draw(st.integers(3, 6))
    x = 0.5 * np.arange(n)
    kind = "uniform" if clean else draw(st.sampled_from(["uniform", "non-uniform", "repeated"]))
    if kind == "non-uniform":
        x[-1] += 0.25
    elif kind == "repeated":
        i = draw(st.integers(1, n - 1))
        x[i] = x[i - 1]
    values = draw(st.lists(st.floats(-1.7e308, 1.7e308), min_size=n, max_size=n))
    has_nan = not clean and draw(st.booleans())
    if has_nan:
        values[draw(st.integers(0, n - 1))] = float("nan")
    text = "x,value\n" + "".join(f"{xi!r},{vi!r}\n" for xi, vi in zip(x.tolist(), values))
    return text, kind != "uniform" or has_nan


@st.composite
def simulate_inputs(draw):
    name, netlist, n_nodes = draw(st.sampled_from([("lc.net", LC_NETLIST.format(
        couple=0.42857142857142855), 1), ("jj.net", JOSEPHSON_NETLIST, 2)]))
    clean = draw(st.booleans())
    tokens = FINITE_TOKENS if clean else ANY_TOKENS
    files = {name: netlist}
    argv, defective = [], False
    for flag in ("--phi", "--q"):
        if draw(st.booleans()):
            text, bad = draw(vectors(tokens, n_nodes, clean))
            argv.append(f"{flag}={text}")
            defective |= bad
    if draw(st.booleans()):
        text, bad = draw(tokens)
        argv.append(f"--q0={text}")
        defective |= bad
    for flag, csv in (("--phi0-csv", "phi0.csv"), ("--q0-csv", "q0.csv")):
        if draw(st.integers(0, 2)) == 0:
            files[csv], bad = draw(profiles(clean))
            argv += [flag, "{tmp}/" + csv]
            defective |= bad
    return name, files, argv, defective


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(simulate_inputs())
def test_fuzz_simulate_initial_state(case):
    name, files, argv, defective = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in files.items():
            Path(tmp, fname).write_text(text)
        argv = ["simulate", f"{tmp}/{name}", *SIM_FLAGS, "--n-sections", "100",
                "--samples", "51", *(a.format(tmp=tmp) for a in argv), "--out", f"{tmp}/out"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    event(f"exit {rc}")
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if defective:
        assert rc == 2, (argv, err.getvalue())
    else:
        assert rc != 2, (argv, err.getvalue())


# --- a netlist-values property ---------------------------------------------
# The topology of JOSEPHSON_NETLIST with every element value drawn from the
# whole positive float range, subnormals included: `reduce` and `simulate`
# either succeed or refuse with exit 2, 3 or 4, and no numpy RuntimeWarning
# escapes on the way.

MAGNITUDES = st.floats(1e-320, 1.7e308).map(repr)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(MAGNITUDES, min_size=6, max_size=6))
# falsifying examples found by this property (ZeroDivisionError and
# OverflowError from E_J/phi0^2, LinAlgError from the ladder's mass matrix,
# numpy warnings from the dt bound, tau and the mass matrix), and phi0 = 1e200
@example(["1.0", "1.0", "1e-320", "1.0", "1.0", "1.0"])
@example(["1.0", "1.0", "1.3407807929942597e+154", "1.0", "1.0", "1.0"])
@example(["1.0", "1.0", "1e+200", "1.0", "1.0", "1.0"])
@example(["1.0", "1.0", "1.0", "1.0", "1.0", "4503599579917364.0"])
@example(["1.0", "1.0", "1.0", "1.0", "1.0", "7865809183042824.0"])
@example(["4.0480450661462125e+23", "1e-320", "1.0", "4.0480450661462125e+23",
          "9.999999999999999e+299", "1.0"])
@example(["1.73251876725969e+307", "1.0", "1.0", "1.0", "1.0", "4.536900429268128e+306"])
@example(["1.3931231832285764e+308", "1.0", "1.0", "1.0", "1.0", "4.0456995163373943e+307"])
def test_netlist_values_property(values):
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp, "values.net")
        net.write_text(VALUES_NETLIST.format(*values))
        for argv in (["reduce", str(net)],
                     ["simulate", str(net), "--ell", "2.0", "--c-per-len", "0.5",
                      "--t-max", "3", "--samples", "31", "--n-sections", "100"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True):
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([*argv, "--out", f"{tmp}/out"])
            event(f"{argv[0]} exit {rc}")
            assert rc in (0, 2, 3, 4), (values, err.getvalue())
            assert "Traceback" not in err.getvalue()


# --- fuzzing the Laplace-side flags -----------------------------------------
# Each value is drawn as text: a finite float over the whole range, a value
# inside the flag's domain, or one of 0, negatives, non-finite and junk
# tokens. A value that is not a number, not finite or outside the flag's
# domain must exit exactly 2, and so must a grid beyond MAX_G_POINTS or an
# --n beyond MAX_IFFT_SAMPLES; accepted runs are kept small (--n <= 4096,
# about 1000 g points at most).

SPECIAL_TOKENS = ["0", "-0.0", "-1", "-2.5e-300", "-1e300", "inf", "-inf", "nan",
                  "abc", "1e", "0x10", ""]
POSITIVE = (0.0, np.inf)
UNIT = (0.0, 1.0)


def number_texts(domain, clean):
    inside = st.floats(*domain, exclude_min=True, exclude_max=True,
                       allow_infinity=False).map(repr)
    if clean:
        return inside
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), inside,
                     st.sampled_from(SPECIAL_TOKENS))


def parsed(text, domain):
    """The float value of an accepted flag value, None for a refused one."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if domain[0] < value < domain[1] else None


@st.composite
def laplace_inputs(draw):
    """(argv, must exit 2) for one reduce, poles or impulse run; about half
    the cases draw every value inside its domain, so the commands run too."""
    command = draw(st.sampled_from(["reduce", "poles", "impulse"]))
    clean = draw(st.booleans())
    argv, refused = [command], False

    def flag(name, domain, text=None):
        nonlocal refused
        text = draw(number_texts(domain, clean)) if text is None else text
        argv.append(f"{name}={text}")
        refused |= parsed(text, domain) is None

    if command == "reduce":
        argv.insert(1, "{net}")
        flag("--z-c", POSITIVE)
    elif command == "poles":
        for _ in range(draw(st.integers(0, 2))):
            flag("--alpha", POSITIVE)
        texts = [draw(number_texts(d, clean)) for d in (UNIT, UNIT, POSITIVE)]
        start, stop, step = (parsed(t, d) for t, d in zip(texts, (UNIT, UNIT, POSITIVE)))
        if None not in (start, stop, step):
            if 1000 < (stop - start) / step < MAX_G_POINTS:  # keep accepted grids small
                texts[2] = repr((stop - start) / draw(st.integers(1, 1000)))
                step = float(texts[2])
            refused |= (stop - start) / step >= MAX_G_POINTS or \
                stop + 0.5 * step <= start
        for name, text, domain in zip(("--g-start", "--g-stop", "--g-step"), texts,
                                      (UNIT, UNIT, POSITIVE)):
            flag(name, domain, text)
    else:
        for _ in range(draw(st.integers(0, 2))):
            flag("--g", UNIT)
        for name in ("--alpha", "--omega-r", "--t-max"):
            if draw(st.booleans()):
                flag(name, POSITIVE)
        n = draw(st.integers(1024, 4096) if clean else
                 st.one_of(st.integers(1024, 4096), st.integers(-10 ** 6, 1023),
                           st.integers(MAX_IFFT_SAMPLES + 1, 10 ** 30)))
        n_text = str(n) if clean else draw(st.sampled_from([str(n), f"{n}.0", "abc"]))
        argv.append(f"--n={n_text}")
        refused |= n_text != str(n) or not 1024 <= n <= MAX_IFFT_SAMPLES
    return argv, refused


@settings(max_examples=500, derandomize=True, deadline=None)
@given(laplace_inputs())
# the partial fractions evaluated in physical units overflow here
@example((["impulse", "--omega-r=1e-100", "--n=1024"], False))
def test_fuzz_laplace_flags(case):
    argv, refused = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        net = write_netlist(Path(tmp))
        argv = [a.format(net=net) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([*argv, "--out", f"{tmp}/out"])
            except SystemExit as exc:
                rc = exc.code
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (rc == 2) == refused, (argv, err.getvalue())
