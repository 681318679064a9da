"""Self-consistent top-of-barrier solver: convergence, physics, invariants."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.cntfet import CNTFET
from repro.devices.gnrfet import GNRFET
from repro.physics.cnt import Chirality
from repro.physics.electrostatics import gate_all_around_capacitance
from repro.transport import ballistic
from repro.transport.ballistic import BallisticParameters, TopOfBarrierSolver


def solve(solver, vgs, vds):
    """One bias point as a one-point slab of the batched barrier Newton."""
    vds_row = np.array([vds], dtype=float)
    current, barrier, iterations = solver._solve_chunk(np.array([vgs], dtype=float), vds_row)
    density, _ = solver._density_batch(barrier, -vds_row)
    return SimpleNamespace(
        current_a=float(current[0]),
        barrier_ev=float(barrier[0]),
        charge_per_m=float(density[0]),
        iterations=int(iterations[0]),
    )


@pytest.fixture(scope="module")
def solver():
    chirality = Chirality(15, 7)
    bands = chirality.band_structure(3)
    c_ins = gate_all_around_capacitance(chirality.diameter_nm, 3.0, 16.0)
    return TopOfBarrierSolver(
        bands, BallisticParameters(c_ins_f_per_m=c_ins, ef_offset_ev=-0.3)
    )


class TestParameterValidation:
    def test_rejects_bad_capacitance(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=0.0)

    def test_rejects_bad_alpha_g(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, alpha_g=1.5)

    def test_rejects_bad_alpha_d(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, alpha_d=-0.1)

    def test_rejects_bad_transmission(self):
        with pytest.raises(ValueError):
            BallisticParameters(c_ins_f_per_m=1e-10, transmission=0.0)


class TestConvergence:
    def test_converges_quickly_at_typical_bias(self, solver):
        op = solve(solver, 0.5, 0.5)
        assert op.iterations < 30

    def test_equilibrium_barrier_is_zero(self, solver):
        op = solve(solver, 0.0, 0.0)
        assert op.barrier_ev == pytest.approx(0.0, abs=1e-6)
        assert op.current_a == pytest.approx(0.0, abs=1e-15)

    def test_extreme_bias_still_converges(self, solver):
        op = solve(solver, 1.5, 1.0)
        assert op.iterations < 150
        assert np.isfinite(op.current_a)


class TestPhysics:
    def test_gate_lowers_barrier(self, solver):
        u0 = solve(solver, 0.0, 0.5).barrier_ev
        u1 = solve(solver, 0.5, 0.5).barrier_ev
        assert u1 < u0

    def test_charging_feedback_weakens_gate(self, solver):
        # |dU/dVg| < alpha_g once charge builds up (quantum capacitance).
        u1 = solve(solver, 0.5, 0.5).barrier_ev
        u2 = solve(solver, 0.6, 0.5).barrier_ev
        assert abs(u2 - u1) < solver.params.alpha_g * 0.1

    def test_subthreshold_swing_near_thermal(self, solver):
        # In subthreshold the barrier follows alpha_g * Vg, so SS ~ 60/alpha_g.
        i1 = solve(solver, 0.05, 0.5).current_a
        i2 = solve(solver, 0.15, 0.5).current_a
        decades = np.log10(i2 / i1)
        ss_mv = 100.0 / decades
        assert 59.0 < ss_mv < 75.0

    def test_current_saturates_with_vds(self, solver):
        i_knee = solve(solver, 0.6, 0.3).current_a
        i_high = solve(solver, 0.6, 0.6).current_a
        assert (i_high - i_knee) / i_high < 0.1

    def test_ohmic_at_low_vds(self, solver):
        i1 = solve(solver, 0.6, 0.01).current_a
        i2 = solve(solver, 0.6, 0.02).current_a
        assert i2 == pytest.approx(2 * i1, rel=0.1)

    def test_charge_increases_with_gate(self, solver):
        n1 = solve(solver, 0.2, 0.5).charge_per_m
        n2 = solve(solver, 0.6, 0.5).charge_per_m
        assert n2 > n1

    def test_transmission_scales_current(self, solver):
        half = TopOfBarrierSolver(
            solver.bands, replace(solver.params, transmission=0.5)
        )
        # Same barrier physics, half the current (charge unchanged).
        assert solve(half, 0.6, 0.5).current_a == pytest.approx(
            solve(solver, 0.6, 0.5).current_a / 2.0, rel=1e-6
        )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_current_nonnegative_forward(self, solver, vgs, vds):
        assert solve(solver, vgs, vds).current_a >= 0.0

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_gate(self, solver, vgs):
        higher = solve(solver, vgs + 0.05, 0.5).current_a
        assert higher > solve(solver, vgs, 0.5).current_a


class TestIVSurface:
    def test_shape_and_monotonicity(self, solver):
        vgs = np.linspace(0.1, 0.6, 4)
        vds = np.linspace(0.05, 0.5, 3)
        surface = solver.currents(vgs[:, None], vds[None, :])
        assert surface.shape == (4, 3)
        # increasing along both axes
        assert np.all(np.diff(surface, axis=0) > 0.0)
        assert np.all(np.diff(surface, axis=1) > 0.0)


# (device kind, gap [eV], subbands, temperature [K]): CNTs across gaps and
# subband counts, plus an armchair GNR, each at 77 / 300 / 400 K.
QUADRATURE_CASES = [
    ("cnt", gap, n_subbands, temperature)
    for gap in (0.35, 0.56, 1.0)
    for n_subbands in (3, 5)
    for temperature in (77.0, 300.0, 400.0)
] + [("gnr", 0.56, None, temperature) for temperature in (77.0, 300.0, 400.0)]


def _quadrature_device(kind, gap, n_subbands, temperature):
    if kind == "cnt":
        return CNTFET.for_bandgap(gap, n_subbands=n_subbands, temperature_k=temperature)
    return GNRFET.for_bandgap(gap, temperature_k=temperature)


class TestQuadrature:
    @pytest.mark.parametrize("kind, gap, n_subbands, temperature", QUADRATURE_CASES)
    def test_production_grid_matches_dense_reference(
        self, monkeypatch, kind, gap, n_subbands, temperature
    ):
        # The trapezoid rule on the even, e^-30-truncated integrand converges
        # geometrically: 256 k samples already sit at the 9600-sample answer.
        device = _quadrature_device(kind, gap, n_subbands, temperature)
        vgs, vds = np.meshgrid(np.linspace(-0.2, 1.2, 8), [0.05, 0.4, 1.0])
        production = TopOfBarrierSolver(device.bands, device.params).currents(vgs, vds)
        monkeypatch.setattr(ballistic, "_K_SAMPLES", 9600)
        reference = TopOfBarrierSolver(device.bands, device.params).currents(vgs, vds)
        measurable = np.abs(reference) > 1e-15
        assert measurable.sum() >= 8
        relative = np.abs(production - reference)[measurable] / np.abs(reference[measurable])
        assert relative.max() <= 1e-12


class TestOneKernel:
    """A bias point's solution does not depend on the slab it is solved in."""

    VGS = np.array([0.0, 0.05, 0.3, 0.6, 1.5, 0.5, -0.3])
    VDS = np.array([0.0, 0.5, 0.05, 0.6, 1.0, -0.2, 0.8])

    def test_solve_is_a_row_of_the_batched_solve(self, solver):
        currents, barriers = solver.solve_currents(self.VGS, self.VDS)
        densities, _ = solver._density_batch(barriers, -self.VDS)
        _, _, iterations = solver._solve_chunk(self.VGS, self.VDS)
        for i, (vgs, vds) in enumerate(zip(self.VGS, self.VDS)):
            op = solve(solver, float(vgs), float(vds))
            assert op.current_a == currents[i]
            assert op.barrier_ev == barriers[i]
            assert op.charge_per_m == densities[i]
            assert op.iterations == iterations[i]
            assert 1 <= op.iterations < 50

    def test_batched_rows_do_not_depend_on_their_slab(self, solver):
        full = solver.currents(self.VGS, self.VDS)
        reversed_slab = solver.currents(self.VGS[::-1], self.VDS[::-1])[::-1]
        np.testing.assert_array_equal(full, reversed_slab)
