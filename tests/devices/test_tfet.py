"""CNT tunnel FET: band alignment, turn-on, paper's Fig. 6 anchors."""

import math

import numpy as np
import pytest

from repro.devices.tfet import CNTTunnelFET
from repro.physics.cnt import Chirality


class TestConstruction:
    def test_rejects_metallic(self):
        with pytest.raises(ValueError):
            CNTTunnelFET(Chirality(9, 9))

    def test_rejects_bad_efficiency(self, chirality_056):
        with pytest.raises(ValueError):
            CNTTunnelFET(chirality_056, gate_efficiency=1.5)

    def test_rejects_bad_urbach(self, chirality_056):
        with pytest.raises(ValueError):
            CNTTunnelFET(chirality_056, urbach_ev=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("t_ox_nm", math.nan),
            ("t_ox_nm", math.inf),
            ("eps_ox", math.nan),
            ("eps_channel", math.inf),
            ("gate_efficiency", math.nan),
            ("urbach_ev", math.inf),
            ("urbach_ev", math.nan),
            ("temperature_k", math.nan),
            ("n_degeneracy_ev", math.nan),
            ("p_degeneracy_ev", -math.inf),
            ("flatband_v", math.nan),
            ("diode_saturation_a", math.inf),
        ],
    )
    def test_rejects_non_finite_parameter(self, chirality_056, name, value):
        with pytest.raises(ValueError, match=name):
            CNTTunnelFET(chirality_056, **{name: value})

    def test_screening_length_scales_with_oxide(self, chirality_056):
        thin = CNTTunnelFET(chirality_056, t_ox_nm=2.0)
        thick = CNTTunnelFET(chirality_056, t_ox_nm=20.0)
        assert thin.screening_length_nm < thick.screening_length_nm


class TestBandAlignment:
    def test_negative_gate_raises_channel_bands(self, reference_tfet):
        assert reference_tfet.channel_midgap_ev(-1.0) > reference_tfet.channel_midgap_ev(
            0.0
        )

    def test_overlap_closed_at_equilibrium(self, reference_tfet):
        assert reference_tfet.band_overlap_ev(0.0, 0.0) < 0.0

    def test_reverse_bias_widens_window(self, reference_tfet):
        assert reference_tfet.band_overlap_ev(-1.0, -0.5) > reference_tfet.band_overlap_ev(
            -1.0, 0.0
        )

    def test_gate_drive_widens_window(self, reference_tfet):
        assert reference_tfet.band_overlap_ev(-1.5, -0.5) > reference_tfet.band_overlap_ev(
            -0.5, -0.5
        )


class TestArrayKernel:
    def test_one_point_current_is_the_kernel_element_bitwise(self, reference_tfet):
        # 201 biases: more than one block of the BTBT integral's batches.
        v_gate = np.linspace(-2.0, 1.0, 201)
        for v_diode in (-0.5, 0.0, 0.4):
            curve = reference_tfet.currents(v_gate, v_diode)
            points = [reference_tfet.current(float(v), v_diode) for v in v_gate]
            np.testing.assert_array_equal(curve, points)

    def test_transfer_curve_is_one_kernel_call(self, reference_tfet, monkeypatch):
        calls = []
        kernel = reference_tfet.currents
        monkeypatch.setattr(
            reference_tfet, "currents", lambda *a: calls.append(a) or kernel(*a)
        )
        reference_tfet.transfer_curve(np.linspace(-2.0, 1.0, 11), -0.5)
        reference_tfet.subthreshold_swing_mv_per_decade(n_points=41)
        assert len(calls) == 2

    def test_broadcasts_gate_against_diode_bias(self, reference_tfet):
        grid = reference_tfet.currents(np.array([-2.0, -1.0])[:, None], np.array([-0.5, 0.4]))
        assert grid.shape == (2, 2)
        assert grid[1, 0] == reference_tfet.current(-1.0, -0.5)

    @pytest.mark.parametrize(
        "v_gate, v_diode, name",
        [(math.nan, -0.5, "v_gate"), (-2.0, math.inf, "v_diode"), ([-2.0, math.nan], -0.5, "v_gate")],
    )
    def test_rejects_non_finite_bias(self, reference_tfet, v_gate, v_diode, name):
        with pytest.raises(ValueError, match=name):
            reference_tfet.currents(v_gate, v_diode)
        with pytest.raises(ValueError, match=name):
            reference_tfet.current(np.atleast_1d(v_gate)[-1], v_diode)


class TestReverseTurnOn:
    def test_btbt_off_before_breakover(self, reference_tfet):
        assert reference_tfet.btbt_current_a(0.5, -0.5) == 0.0

    def test_btbt_on_past_breakover(self, reference_tfet):
        assert reference_tfet.btbt_current_a(-1.5, -0.5) < 0.0  # reverse sign

    def test_transfer_curve_monotone_turn_on(self, reference_tfet):
        v_gate = np.linspace(-2.0, 0.5, 26)
        current = reference_tfet.transfer_curve(v_gate, -0.5)
        # More negative gate -> more current (allowing flat tails).
        assert current[0] > 100 * current[-1]

    def test_ss_in_measured_range(self, reference_tfet):
        # Paper: 83 mV/dec average, individual intervals down to 32.
        ss = reference_tfet.subthreshold_swing_mv_per_decade()
        assert 30.0 < ss < 110.0

    def test_on_current_density_ma_per_um_class(self, reference_tfet):
        density = reference_tfet.on_current_density_a_per_m()
        # Paper: ~1 mA/um = 1e3 A/m; accept the same order of magnitude.
        assert 3e2 < density < 3e4

    def test_thinner_oxide_more_on_current(self, chirality_056):
        thin = CNTTunnelFET(chirality_056, t_ox_nm=3.0)
        thick = CNTTunnelFET(chirality_056, t_ox_nm=10.0)
        assert abs(thin.current(-2.0, -0.5)) > abs(thick.current(-2.0, -0.5))


class TestForwardBias:
    def test_diode_conducts_forward(self, reference_tfet):
        assert reference_tfet.current(0.0, 0.4) > 0.0

    def test_gate_barely_modulates_forward(self, reference_tfet):
        # Paper: "the application of the back voltage is hardly
        # modulating the current" in forward direction.
        on_gate = reference_tfet.current(-2.0, 0.4)
        off_gate = reference_tfet.current(0.5, 0.4)
        assert on_gate / off_gate == pytest.approx(1.0, abs=0.25)

    def test_diode_exponential_in_forward(self, reference_tfet):
        i1 = reference_tfet.diode_current_a(0.2)
        i2 = reference_tfet.diode_current_a(0.3)
        assert i2 > 5.0 * i1

    def test_diode_saturates_in_reverse(self, reference_tfet):
        assert reference_tfet.diode_current_a(-0.5) == pytest.approx(
            -reference_tfet.diode_saturation_a, rel=1e-3
        )


class TestAsymmetry:
    def test_rectification(self, reference_tfet):
        """Diode asymmetry at zero gate: forward >> reverse magnitude."""
        forward = reference_tfet.current(0.0, 0.4)
        reverse = abs(reference_tfet.current(0.0, -0.4))
        assert forward > 10.0 * reverse
