import re

import numpy as np
import pytest

from lineport import (InputError, LineInitialState, NumericalPreconditionError, Signal,
                      ValidationError, backward_wave, line_params, thevenin_source)


class TestLineParams:
    def test_unit_values(self):
        lp = line_params(1.0, 1.0)
        assert lp.v_p == 1.0 and lp.z_c == 1.0

    def test_exact_arithmetic(self):
        lp = line_params(4.0, 1.0)
        assert lp.v_p == pytest.approx(0.5, rel=0, abs=0)
        assert lp.z_c == pytest.approx(2.0, rel=0, abs=0)

    def test_si_coax(self):
        lp = line_params(2.5e-7, 1e-10)
        assert lp.z_c == pytest.approx(50.0, rel=1e-12)
        assert lp.v_p == pytest.approx(2e8, rel=1e-12)

    def test_invariants(self):
        lp = line_params(3.7, 0.21)
        assert lp.v_p == pytest.approx(1.0 / np.sqrt(lp.ell * lp.c_per_len), rel=1e-15)
        assert lp.z_c == pytest.approx(np.sqrt(lp.ell / lp.c_per_len), rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            line_params(-1.0, 1.0)
        with pytest.raises(ValidationError):
            line_params(1.0, 0.0)


class TestBackwardWave:
    def test_rest_line(self):
        lp = line_params(1.0, 1.0)
        state = LineInitialState.rest(x_max=10.0, dx=0.01)
        t = np.linspace(0.0, 5.0, 50)
        assert np.all(backward_wave(state, lp, t) == 0.0)

    def test_constant_charge(self):
        lp = line_params(2.0, 0.5)
        v0 = 3.0
        state = LineInitialState.from_functions(
            lambda x: np.zeros_like(x), lambda x: lp.c_per_len * v0 * np.ones_like(x),
            x_max=20.0, dx=0.01)
        t = np.linspace(0.0, 5.0, 11)
        assert backward_wave(state, lp, t) == pytest.approx(np.full(11, v0 / 2), rel=1e-12)

    def test_pure_rightward_pulse_cancels(self):
        # forward-only initial data: q/c = -v_p phi_x
        lp = line_params(1.0, 4.0)
        x0, width = 5.0, 0.5

        def phi(x):
            return np.exp(-((x - x0) / width) ** 2)

        def q(x):
            return -lp.v_p * lp.c_per_len * (-2.0 * (x - x0) / width ** 2) * phi(x)

        state = LineInitialState.from_functions(phi, q, x_max=15.0, dx=0.002)
        t = np.linspace(0.1, 10.0, 200) / lp.v_p * (15.0 / 10.0) * 0.5
        vb = backward_wave(state, lp, t)
        assert np.abs(vb).max() <= 1e-5 * np.abs(q(x0 + width / 2) / lp.c_per_len)

    def test_out_of_domain_policy(self):
        lp = line_params(1.0, 1.0)
        state = LineInitialState.rest(x_max=1.0, dx=0.01, extend="zero")
        assert backward_wave(state, lp, 100.0) == 0.0
        strict = LineInitialState(dx=0.01, phi0=state.phi0, q0=state.q0, extend="error")
        with pytest.raises(ValidationError, match="outside sampled profile"):
            backward_wave(strict, lp, 100.0)


class TestLineInitialState:
    @pytest.mark.parametrize("dx, phi0, q0, match", [
        (0.0, [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], "spacing.* must be positive"),
        (-0.1, [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], "spacing.* must be positive"),
        (0.1, [0.0, np.nan, 0.0], [0.0, 0.0, 0.0], "must be finite"),
        (0.1, [0.0, 1.0, 0.0], [0.0, np.inf, 0.0], "must be finite")],
        ids=["dx-zero", "dx-negative", "phi0-nan", "q0-inf"])
    def test_bad_profile_refused(self, dx, phi0, q0, match):
        with pytest.raises(ValidationError, match=match):
            LineInitialState(dx=dx, phi0=phi0, q0=q0)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: LineInitialState(dx=0.1, phi0=[0.0, 1.0, 0.0],
                                              q0=[0.0, 0.0, 0.0], extend="wrap"),
                     "unknown extend policy 'wrap'", id="unknown-extend"),
        pytest.param(lambda: LineInitialState.from_csv(), "need at least one profile file",
                     id="from-csv-no-file")])
    def test_malformed_arguments_refused(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()

    def test_out_of_domain_message_names_the_position(self):
        state = LineInitialState(dx=0.5, phi0=[0.0, 1.0, 0.0], q0=[0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match=re.escape(
                "position 1.5 outside sampled profile [0, 1]; supply a longer profile "
                "or construct the state with extend='zero'")):
            state.phi_x_at([0.5, 1.5])


class TestTheveninSource:
    def test_rest_line_zero_signal(self):
        lp = line_params(1.0, 1.0)
        state = LineInitialState.rest(x_max=5.0, dx=0.01)
        sig = thevenin_source(state, lp, np.linspace(0.0, 2.0, 21))
        assert np.all(sig.samples == 0.0)

    def test_constant_charge_gives_v0(self):
        lp = line_params(1.0, 1.0)
        v0 = 1.7
        state = LineInitialState.from_functions(
            lambda x: np.zeros_like(x), lambda x: lp.c_per_len * v0 * np.ones_like(x),
            x_max=10.0, dx=0.01)
        sig = thevenin_source(state, lp, np.linspace(0.0, 5.0, 21))
        assert sig.samples == pytest.approx(np.full(21, v0), rel=1e-12)

    def test_gaussian_bump_arrival_time(self):
        lp = line_params(1.0, 0.25)  # v_p = 2
        x0, width = 6.0, 0.4
        state = LineInitialState.from_functions(
            lambda x: np.exp(-((x - x0) / width) ** 2),
            lambda x: np.zeros_like(x),
            x_max=16.0, dx=0.005)
        t_grid = np.linspace(0.0, 7.9, 4000)
        sig = thevenin_source(state, lp, t_grid)
        peak_t = t_grid[np.argmax(np.abs(sig.samples))]
        assert peak_t == pytest.approx(x0 / lp.v_p, abs=2 * width / lp.v_p)

    def test_transport_window_contains_energy(self):
        lp = line_params(1.0, 1.0)
        x0, width = 5.0, 0.3
        state = LineInitialState.from_functions(
            lambda x: np.exp(-((x - x0) / width) ** 2),
            lambda x: np.zeros_like(x),
            x_max=12.0, dx=0.002)
        t_grid = np.linspace(0.0, 11.9, 6000)
        sig = thevenin_source(state, lp, t_grid)
        energy = sig.samples ** 2
        window = np.abs(t_grid - x0 / lp.v_p) <= 5 * width / lp.v_p
        assert energy[window].sum() >= 0.999 * energy.sum()

    def test_overflowing_profile_refused(self):
        """A 25-point triangle charge profile of height 1e308 overflows e0:
        refused as a numerical precondition, with no overflow warning."""
        height = 1e308 * np.maximum(0.0, 1.0 - np.abs(0.1 * np.arange(25) - 1.2) / 1.2)
        state = LineInitialState(dx=0.1, phi0=np.zeros(25), q0=height, extend="zero")
        with pytest.raises(NumericalPreconditionError, match=re.escape(
                "the line profiles' source e0 is not finite in float64; "
                "scale the profile values down")):
            thevenin_source(state, line_params(2.0, 0.5), np.linspace(0.0, 3.0, 31))


class TestOnePortIdentity:
    def test_identity_for_arbitrary_forward_wave(self, rng):
        # V(t) - Z_c I(t) = e0(t) at x=0 regardless of the outgoing wave
        lp = line_params(2.0, 0.125)
        state = LineInitialState.from_functions(
            lambda x: 0.3 * np.exp(-((x - 4.0) / 0.8) ** 2),
            lambda x: 0.2 * lp.c_per_len * np.cos(x / 2.0),
            x_max=20.0, dx=0.004)
        t_grid = np.linspace(0.0, 4.0, 401)
        v_fwd = Signal.from_samples(t_grid, rng.normal(size=len(t_grid)))
        v_bwd = Signal.from_samples(t_grid, backward_wave(state, lp, t_grid))
        e0 = thevenin_source(state, lp, t_grid)
        for t in (0.0, 1.3, 2.7, 4.0):
            # d'Alembert at x = 0: v = v_fwd + v_bwd, i = (v_fwd - v_bwd) / Z_c
            v, i = v_fwd(t) + v_bwd(t), (v_fwd(t) - v_bwd(t)) / lp.z_c
            assert v - lp.z_c * i == pytest.approx(float(e0(t)), rel=1e-12, abs=1e-14)

    def test_initial_profile_reconstruction(self):
        # v_fwd(-x/v_p) + v_bwd(x/v_p) = q0(x)/c at t = 0
        lp = line_params(1.5, 0.6)
        state = LineInitialState.from_functions(
            lambda x: np.sin(x) * np.exp(-0.1 * x),
            lambda x: lp.c_per_len * np.cos(1.3 * x),
            x_max=10.0, dx=0.001)
        x = np.linspace(0.5, 8.0, 40)
        v_fwd = state.q_at(x) / (2.0 * lp.c_per_len) - 0.5 * lp.v_p * state.phi_x_at(x)
        recon = v_fwd + backward_wave(state, lp, x / lp.v_p)
        assert recon == pytest.approx(state.q_at(x) / lp.c_per_len, rel=1e-5, abs=1e-8)


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        x = np.linspace(0.0, 4.0, 81)
        phi = np.exp(-((x - 2.0) / 0.5) ** 2)
        q = 0.3 * np.sin(x)
        Signal.from_samples(x, phi).to_csv(tmp_path / "phi.csv", header="x,phi")
        Signal.from_samples(x, q).to_csv(tmp_path / "q.csv", header="x,q")
        state = LineInitialState.from_csv(tmp_path / "phi.csv", tmp_path / "q.csv")
        assert state.dx == pytest.approx(0.05)
        assert state.phi_at(2.0) == pytest.approx(1.0, rel=1e-12)
        assert state.q_at(1.0) == pytest.approx(0.3 * np.sin(1.0), rel=1e-3)

    def test_single_file_zero_other_profile(self, tmp_path):
        x = np.linspace(0.0, 1.0, 21)
        Signal.from_samples(x, np.ones(21)).to_csv(tmp_path / "q.csv")
        state = LineInitialState.from_csv(q_path=tmp_path / "q.csv")
        assert not state.phi0.any()
        assert np.all(state.q0 == 1.0)

    @pytest.mark.parametrize("which", ["phi_path", "q_path"])
    def test_shifted_x_origin_refused(self, tmp_path, which):
        # read from x = 0, these rows would put the pulse peak at x = 1
        path = tmp_path / "shifted.csv"
        path.write_text("x,value\n5,0\n6,1\n7,0\n8,0\n")
        with pytest.raises(InputError, match=r"'[^']*shifted\.csv' starts at x = 5; "
                                             r".*shift its x column by -5$"):
            LineInitialState.from_csv(**{which: path})

    def test_mismatched_grids_rejected(self, tmp_path):
        Signal.from_samples(np.linspace(0, 1, 11), np.ones(11)).to_csv(tmp_path / "a.csv")
        Signal.from_samples(np.linspace(0, 1, 21), np.ones(21)).to_csv(tmp_path / "b.csv")
        with pytest.raises(InputError, match="x grid"):
            LineInitialState.from_csv(tmp_path / "a.csv", tmp_path / "b.csv")
