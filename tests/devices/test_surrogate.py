"""Surrogate compilation: fidelity, analytic derivatives, cache behaviour.

Covers the tentpole contracts of :mod:`repro.devices.surrogate`:

* golden-tolerance equivalence against direct physical evaluation over
  the declared operating box (including ``PType`` mirrors and
  ``FETVariation``/``ScaledShiftedFET`` transforms composed *around*
  the surrogate without recompilation);
* analytic ``linearize``/``linearize_point`` consistency (no
  finite-difference step on the hot path);
* the per-cell kernel against a fitpack ``RectBivariateSpline.ev``
  oracle on the same table (in box, on nodes and edges, outside the box,
  mirrored, after a pickle round trip that ships the cells);
* content-addressed caching: memory hits, disk round-trips that are
  bitwise deterministic, corrupt- and stale-file recovery (including
  missing, misshapen or non-finite stored cells), cache
  disabling, keys derived from the pickled model state, and the
  identity fallback for models that do not pickle.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from repro.circuit.sweep import FETVariation, CircuitMonteCarlo, ScaledShiftedFET, perturbed_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC
from repro.devices.base import FETModel, OperatingBox, PType
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET
from repro.devices.fabric import CNTFabricFET
from repro.devices.gnrfet import GNRFET
from repro.devices.reference import TrigateFET
from repro.devices import surrogate as surrogate_module
from repro.devices.surrogate import (
    GridSpec,
    SurrogateFET,
    compile_surrogate,
    surrogate_cache_dir,
    surrogate_fidelity,
)
from repro.physics.cnt import Chirality
from repro.physics.gnr import ArmchairGNR


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty disk cache and a cleared memory cache."""
    monkeypatch.setenv(surrogate_module.CACHE_ENV, str(tmp_path / "surrogates"))
    surrogate_module.clear_surrogate_memory()
    yield
    surrogate_module.clear_surrogate_memory()


def _covered_points(surrogate, n, seed=3):
    """Random biases inside the region the table covers (incl. mirror)."""
    rng = np.random.default_rng(seed)
    lo_g, hi_g = surrogate.vgs_grid[0], surrogate.vgs_grid[-1]
    lo_d, hi_d = surrogate.vds_grid[0], surrogate.vds_grid[-1]
    if surrogate.mirror_symmetric:
        vgs = rng.uniform(lo_g, hi_g, 2 * n)
        vds = rng.uniform(-hi_d, hi_d, 2 * n)
        keep = (vds >= 0.0) | (vgs - vds <= hi_g)
        return vgs[keep][:n], vds[keep][:n]
    return rng.uniform(lo_g, hi_g, n), rng.uniform(lo_d, hi_d, n)


class TestFidelity:
    def test_smooth_empirical_model_within_acceptance(self):
        device = NonSaturatingFET()
        surrogate = compile_surrogate(device)
        assert surrogate.fit_error <= 1e-4
        assert surrogate_fidelity(surrogate, device) <= 1e-4

    def test_full_box_relative_error_including_negative_vds(self):
        device = NonSaturatingFET()
        surrogate = compile_surrogate(device)
        vgs, vds = _covered_points(surrogate, 400)
        direct = device.currents(vgs, vds)
        approx = surrogate.currents(vgs, vds)
        scale = np.abs(direct).max()
        rel = np.abs(approx - direct) / np.maximum(np.abs(direct), 1e-6 * scale)
        assert rel.max() <= 1e-4

    def test_physical_cntfet_within_acceptance(self):
        # One-subband tube on a trimmed box keeps the fill affordable in
        # tier 1 while exercising the real top-of-barrier solver fill
        # (warm-started columns) end to end.
        # The paper's 0.6 V operating window: both grid axes reach the
        # ~10 mV spacing the kT-smooth surface needs within tier-1 cost.
        device = CNTFET(Chirality(17, 0), n_subbands=1)
        spec = GridSpec(
            box=OperatingBox(vgs_min=-0.1, vgs_max=1.0, vds_max=0.6),
            initial_points=(17, 9),
        )
        surrogate = compile_surrogate(device, spec)
        assert surrogate_fidelity(surrogate, device) <= 1e-4

    def test_zero_current_at_zero_vds_is_exact(self):
        surrogate = compile_surrogate(NonSaturatingFET())
        assert surrogate.currents(np.linspace(-0.2, 1.2, 7), 0.0).tolist() == [0.0] * 7

    def test_mirror_symmetry_of_symmetric_surrogate(self):
        surrogate = compile_surrogate(AlphaPowerFET())
        assert surrogate.mirror_symmetric
        vgs, vds = 0.6, 0.4
        assert surrogate.current(vgs, -vds) == pytest.approx(
            -surrogate.current(vgs + vds, vds), rel=1e-12
        )


class TestAnalyticDerivatives:
    def test_linearize_matches_finite_differences_of_surrogate(self):
        surrogate = compile_surrogate(NonSaturatingFET())
        rng = np.random.default_rng(5)
        vgs = rng.uniform(-0.25, 1.25, 200)
        vds = rng.uniform(-1.25, 1.25, 200)
        _, gm, gds = surrogate.linearize(vgs, vds)
        dv = 1e-6
        gm_fd = (surrogate.currents(vgs + dv, vds) - surrogate.currents(vgs - dv, vds)) / (2 * dv)
        gds_fd = (surrogate.currents(vgs, vds + dv) - surrogate.currents(vgs, vds - dv)) / (2 * dv)
        # Exclude probes straddling the vds = 0 seam, where central
        # differences mix the two quadrants.
        interior = np.abs(vds) > dv
        np.testing.assert_allclose(gm[interior], gm_fd[interior], rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(gds[interior], gds_fd[interior], rtol=1e-6, atol=1e-12)

    def test_linearize_point_bitwise_matches_array_path(self):
        surrogate = compile_surrogate(AlphaPowerFET())
        rng = np.random.default_rng(11)
        vgs = rng.uniform(-0.3, 1.3, 50)
        vds = rng.uniform(-1.3, 1.3, 50)
        current, gm, gds = surrogate.linearize(vgs, vds)
        for k in range(vgs.size):
            point = surrogate.linearize_point(float(vgs[k]), float(vds[k]))
            assert point == (float(current[k]), float(gm[k]), float(gds[k]))

    def test_out_of_box_extrapolation_is_finite_and_first_order(self):
        surrogate = compile_surrogate(NonSaturatingFET())
        hi = surrogate.vgs_grid[-1]
        current, gm, gds = surrogate.linearize(np.array([hi + 0.5]), np.array([0.8]))
        edge_c, edge_gm, edge_gds = surrogate.linearize(np.array([hi]), np.array([0.8]))
        assert np.isfinite(current).all() and np.isfinite(gm).all()
        assert gm[0] == edge_gm[0]  # derivative frozen at the clamped edge
        assert current[0] == pytest.approx(edge_c[0] + 0.5 * edge_gm[0], rel=1e-12)


KERNEL_ATOL = 1e-12  # asinh space


class _SplineOracle:
    """fitpack evaluation of a surrogate's table: the pre-kernel reference.

    Fits the same interpolating spline and evaluates it with three
    ``RectBivariateSpline.ev`` calls, then applies the clamp, the
    ``I = vds * h_ref * sinh(s)`` reconstruction and the first-order
    continuation exactly as the surrogate documents them.
    """

    def __init__(self, surrogate):
        self.vgs, self.vds = surrogate.vgs_grid, surrogate.vds_grid
        self.h_ref = surrogate.h_ref
        self.spline = RectBivariateSpline(
            self.vgs,
            self.vds,
            np.arcsinh(surrogate.table / self.h_ref),
            kx=min(3, self.vgs.size - 1),
            ky=min(3, self.vds.size - 1),
            s=0,
        )

    def asinh(self, vg, vd):
        return (
            self.spline.ev(vg, vd),
            self.spline.ev(vg, vd, dx=1),
            self.spline.ev(vg, vd, dy=1),
        )

    def forward(self, vgs, vds):
        vg = np.clip(vgs, self.vgs[0], self.vgs[-1])
        vd = np.clip(vds, self.vds[0], self.vds[-1])
        s, s_g, s_d = self.asinh(vg, vd)
        h = self.h_ref * np.sinh(s)
        slope = self.h_ref * np.cosh(s)
        gm = vd * slope * s_g
        gds = h + vd * slope * s_d
        return vd * h + (vgs - vg) * gm + (vds - vd) * gds, gm, gds


def _box_probes(surrogate, n=400, seed=13):
    """Random in-box points, every node, and the box edges and corners."""
    rng = np.random.default_rng(seed)
    grid_g, grid_d = surrogate.vgs_grid, surrogate.vds_grid
    nodes_g, nodes_d = np.meshgrid(grid_g, grid_d, indexing="ij")
    edge_g = np.concatenate([grid_g, grid_g, np.full(grid_d.size, grid_g[0]), np.full(grid_d.size, grid_g[-1])])
    edge_d = np.concatenate([np.full(grid_g.size, grid_d[0]), np.full(grid_g.size, grid_d[-1]), grid_d, grid_d])
    vgs = np.concatenate([rng.uniform(grid_g[0], grid_g[-1], n), nodes_g.ravel(), edge_g])
    vds = np.concatenate([rng.uniform(grid_d[0], grid_d[-1], n), nodes_d.ravel(), edge_d])
    return vgs, vds


def _kernel_surrogates():
    # A bicubic symmetric table, a two-sided one, and a hand-built table
    # whose 3-node vgs axis makes the spline quadratic along vgs.
    vgs = np.array([0.0, 0.5, 1.0])
    vds = np.linspace(0.0, 1.0, 6)
    small = SurrogateFET(
        vgs, vds, 1e-6 * (1.0 + vgs[:, None] ** 2) * (1.0 + vds[None, :]), h_ref=1e-12
    )
    return {
        "alpha_power": compile_surrogate(AlphaPowerFET()),
        "non_saturating": compile_surrogate(NonSaturatingFET()),
        "quadratic_axis": small,
    }


@pytest.mark.parametrize("name", ["alpha_power", "non_saturating", "quadratic_axis"])
class TestCellKernel:
    """The per-cell kernel reproduces fitpack's spline to rounding."""

    def test_asinh_space_matches_fitpack(self, name):
        surrogate = _kernel_surrogates()[name]
        oracle = _SplineOracle(surrogate)
        vgs, vds = _box_probes(surrogate)
        kernel = surrogate._cell_polynomial(vgs, vds)
        for got, want in zip(kernel, oracle.asinh(vgs, vds)):
            np.testing.assert_allclose(got, want, rtol=KERNEL_ATOL, atol=KERNEL_ATOL)

    def test_outside_box_continuation_matches_fitpack(self, name):
        surrogate = _kernel_surrogates()[name]
        oracle = _SplineOracle(surrogate)
        lo_g, hi_g = surrogate.vgs_grid[0], surrogate.vgs_grid[-1]
        lo_d, hi_d = surrogate.vds_grid[0], surrogate.vds_grid[-1]
        vgs = np.array([lo_g - 0.4, hi_g + 0.3, hi_g + 0.2, lo_g - 0.1, 0.5 * (lo_g + hi_g)])
        vds = np.array([0.5 * (lo_d + hi_d), hi_d + 0.2, lo_d + 0.01, hi_d + 0.5, hi_d + 0.05])
        got = surrogate._eval_forward(vgs, vds)
        for value, want in zip(got, oracle.forward(vgs, vds)):
            np.testing.assert_allclose(value, want, rtol=1e-11)

    def test_pickle_round_trip_ships_the_cells(self, name, monkeypatch):
        surrogate = _kernel_surrogates()[name]
        state = surrogate.__getstate__()
        assert state["_cells"] is surrogate._cells
        assert state["source"] is None
        payload = pickle.dumps(surrogate)

        def no_rebuild(*args):
            raise AssertionError("unpickling rebuilt the cells")

        monkeypatch.setattr(surrogate_module, "_bicubic_cells", no_rebuild)
        clone = pickle.loads(payload)
        assert np.array_equal(clone._cells, surrogate._cells)
        vgs, vds = _box_probes(surrogate, n=50)
        vds = np.concatenate([vds, -vds])
        vgs = np.concatenate([vgs, vgs])
        for got, want in zip(clone.linearize(vgs, vds), surrogate.linearize(vgs, vds)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["alpha_power", "quadratic_axis"])  # symmetric tables
def test_mirrored_points_apply_the_chain_rule(name):
    surrogate = _kernel_surrogates()[name]
    oracle = _SplineOracle(surrogate)
    rng = np.random.default_rng(17)
    vgs = rng.uniform(surrogate.vgs_grid[0], surrogate.vgs_grid[-1], 200)
    vds = -rng.uniform(0.0, surrogate.vds_grid[-1], 200)
    current, gm, gds = surrogate.linearize(vgs, vds)
    current_f, gm_f, gds_f = oracle.forward(vgs - vds, -vds)
    np.testing.assert_allclose(current, -current_f, rtol=1e-11)
    np.testing.assert_allclose(gm, -gm_f, rtol=1e-11)
    np.testing.assert_allclose(gds, gm_f + gds_f, rtol=1e-11)
    for k in range(0, 200, 17):
        point = surrogate.linearize_point(float(vgs[k]), float(vds[k]))
        assert point == (float(current[k]), float(gm[k]), float(gds[k]))


class TestComposition:
    def test_ptype_compile_unwraps_and_shares_the_surrogate(self):
        nfet = NonSaturatingFET()
        plain = compile_surrogate(nfet)
        mirrored = compile_surrogate(PType(nfet))
        assert isinstance(mirrored, PType)
        assert mirrored.nfet is plain

    def test_ptype_mirror_tracks_direct_ptype(self):
        device = AlphaPowerFET()
        surrogate = compile_surrogate(device)
        rng = np.random.default_rng(9)
        vgs = -rng.uniform(0.0, 1.2, 100)
        vds = -rng.uniform(0.0, 1.2, 100)
        direct = PType(device).currents(vgs, vds)
        approx = PType(surrogate).currents(vgs, vds)
        scale = np.abs(direct).max()
        assert np.abs(approx - direct).max() <= 2e-3 * scale

    def test_scaled_shifted_wrapper_needs_no_recompilation(self):
        device = NonSaturatingFET()
        surrogate = compile_surrogate(device)
        wrapped = ScaledShiftedFET(surrogate, 1.2, 0.03)
        reference = ScaledShiftedFET(device, 1.2, 0.03)
        rng = np.random.default_rng(13)
        # The shift moves the wrapper's effective box: sample where the
        # shifted bias still lands on the tabulated surface.
        vgs = rng.uniform(surrogate.vgs_grid[0] + 0.03, surrogate.vgs_grid[-1], 200)
        vds = rng.uniform(0.0, surrogate.vds_grid[-1], 200)
        approx = wrapped.currents(vgs, vds)
        direct = reference.currents(vgs, vds)
        scale = np.abs(direct).max()
        rel = np.abs(approx - direct) / np.maximum(np.abs(direct), 1e-6 * scale)
        assert rel.max() <= 2e-4

    def test_batched_mc_on_surrogates_matches_scalar_perturbed_clones(self):
        surrogate = compile_surrogate(AlphaPowerFET())
        circuit = Circuit("inv")
        circuit.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        circuit.add_voltage_source("VIN", "in", "0", DC(0.45))
        circuit.add_fet("MP", "out", "in", "vdd", PType(surrogate))
        circuit.add_fet("MN", "out", "in", "0", surrogate)
        engine = CircuitMonteCarlo(circuit)
        variation = FETVariation.sample(
            12, len(engine.fet_names), seed=42, drive_sigma=0.2, vth_sigma_v=0.02
        )
        result = engine.run(variation)
        assert result.converged.all()
        from repro.circuit.solver import solve_dc

        for i in range(variation.n_instances):
            scalar = solve_dc(perturbed_circuit(circuit, variation, i).build_system())
            # Both paths stop at the solver's residual tolerance; at a
            # mid-transition output (small gds) that allows a ~uV-scale
            # gap.  A composition bug would show up at mV scale.
            np.testing.assert_allclose(result.x[i], scalar, atol=1e-5)


class TestCache:
    def _key_of(self, model, spec=None):
        spec = spec or GridSpec()
        box = spec.box or model.operating_box()
        return surrogate_module._cache_key(model, spec, box, model.mirror_symmetric)

    def test_disk_round_trip_is_bitwise_deterministic(self):
        first = compile_surrogate(NonSaturatingFET())
        surrogate_module.clear_surrogate_memory()
        second = compile_surrogate(NonSaturatingFET())
        assert first is not second
        assert np.array_equal(first.table, second.table)
        assert np.array_equal(first.vgs_grid, second.vgs_grid)
        assert first.h_ref == second.h_ref
        assert first.fit_error == second.fit_error

    def test_memory_cache_returns_the_same_instance(self):
        first = compile_surrogate(NonSaturatingFET())
        # Equal parameters hash to the same key even for a new instance.
        second = compile_surrogate(NonSaturatingFET())
        assert first is second

    def test_cache_file_created_and_reused(self):
        compile_surrogate(NonSaturatingFET())
        directory = surrogate_cache_dir()
        files = list(directory.glob("*.npz"))
        assert len(files) == 1
        mtime = files[0].stat().st_mtime_ns
        surrogate_module.clear_surrogate_memory()
        compile_surrogate(NonSaturatingFET())
        assert files[0].stat().st_mtime_ns == mtime  # loaded, not rewritten

    def test_corrupt_cache_file_is_recompiled_and_replaced(self):
        first = compile_surrogate(NonSaturatingFET())
        directory = surrogate_cache_dir()
        (path,) = directory.glob("*.npz")
        path.write_bytes(b"this is not an npz file")
        surrogate_module.clear_surrogate_memory()
        recovered = compile_surrogate(NonSaturatingFET())
        assert np.array_equal(recovered.table, first.table)
        surrogate_module.clear_surrogate_memory()
        reloaded = compile_surrogate(NonSaturatingFET())
        assert np.array_equal(reloaded.table, first.table)

    def _count_fills(self, monkeypatch) -> list:
        fills = []
        fill = surrogate_module._fill_table

        def counted(*args):
            fills.append(args)
            return fill(*args)

        monkeypatch.setattr(surrogate_module, "_fill_table", counted)
        return fills

    @pytest.mark.parametrize(
        "defect",
        [
            lambda arrays: arrays.pop("cells"),
            lambda arrays: arrays.update(cells=arrays["cells"][:, :-1]),
            lambda arrays: arrays["cells"].__setitem__((3, 2, 1, 0), np.nan),
        ],
        ids=["missing", "wrong_shape", "non_finite"],
    )
    def test_defective_stored_cells_are_recompiled_and_replaced(self, defect, monkeypatch):
        first = compile_surrogate(NonSaturatingFET())
        (path,) = surrogate_cache_dir().glob("*.npz")
        with np.load(path) as data:
            arrays = dict(data)
        defect(arrays)
        with path.open("wb") as handle:
            np.savez(handle, **arrays)
        fills = self._count_fills(monkeypatch)
        surrogate_module.clear_surrogate_memory()
        recovered = compile_surrogate(NonSaturatingFET())
        assert len(fills) == 1  # recompiled, never misread
        assert np.array_equal(recovered._cells, first._cells)
        with np.load(path) as data:  # and the file replaced
            assert np.array_equal(data["cells"], first._cells)
        surrogate_module.clear_surrogate_memory()
        reloaded = compile_surrogate(NonSaturatingFET())
        assert len(fills) == 1  # once: the replacement is read back
        assert np.array_equal(reloaded._cells, first._cells)

    def test_version_2_file_is_never_read(self, monkeypatch):
        model = NonSaturatingFET()
        first = compile_surrogate(model)
        (path,) = surrogate_cache_dir().glob("*.npz")
        with monkeypatch.context() as patch:
            patch.setattr(surrogate_module, "_CACHE_VERSION", 2)
            old_key = self._key_of(model)
        # A version-2 file: table only, under its own key.
        with np.load(path) as data:
            arrays = dict(data)
        del arrays["cells"]
        meta = json.loads(str(arrays["meta"]))
        meta.update(version=2, key=old_key)
        arrays["meta"] = np.asarray(json.dumps(meta))
        old_path = path.with_name(f"{old_key}.npz")
        with old_path.open("wb") as handle:
            np.savez(handle, **arrays)
        old_bytes = old_path.read_bytes()
        # The same file planted on the current key's path.
        path.write_bytes(old_bytes)

        opened = []
        load = surrogate_module._load_cached

        def spied(file, key):
            opened.append(file)
            return load(file, key)

        monkeypatch.setattr(surrogate_module, "_load_cached", spied)
        fills = self._count_fills(monkeypatch)
        surrogate_module.clear_surrogate_memory()
        recovered = compile_surrogate(model)
        assert opened == [path] and len(fills) == 1
        assert np.array_equal(recovered._cells, first._cells)
        assert old_path.read_bytes() == old_bytes
        surrogate_module.clear_surrogate_memory()
        compile_surrogate(model)
        assert opened == [path, path] and len(fills) == 1

    def test_stale_format_version_is_recompiled(self, monkeypatch):
        first = compile_surrogate(NonSaturatingFET())
        monkeypatch.setattr(surrogate_module, "_CACHE_VERSION", 999)
        surrogate_module.clear_surrogate_memory()
        # Old key is version-tagged, so a bumped version simply misses.
        recompiled = compile_surrogate(NonSaturatingFET())
        assert np.array_equal(recompiled.table, first.table)

    def test_key_mismatch_inside_file_is_rejected(self):
        compile_surrogate(NonSaturatingFET())
        directory = surrogate_cache_dir()
        (path,) = directory.glob("*.npz")
        key = self._key_of(AlphaPowerFET())
        # Pretend the alpha-power table already exists by renaming the
        # nonsat file onto the alpha key: the stored key disagrees,
        # so the loader must recompile instead of serving a wrong table.
        stale = directory / f"{key}.npz"
        path.rename(stale)
        surrogate = compile_surrogate(AlphaPowerFET())
        assert surrogate.vgs_grid.size >= 4
        assert surrogate_fidelity(surrogate, AlphaPowerFET(), rel_floor=0.05) < 0.05

    def test_env_off_disables_disk(self, monkeypatch):
        monkeypatch.setenv(surrogate_module.CACHE_ENV, "off")
        assert surrogate_cache_dir() is None
        compile_surrogate(NonSaturatingFET())

    def test_unfingerprintable_model_uses_identity_memoisation(self):
        class Opaque(FETModel):
            def current(self, vgs, vds):
                if vds < 0.0:
                    return -self.current(vgs - vds, -vds)
                return 1e-4 * max(vgs, 0.0) * np.tanh(vds / 0.3)

        model = Opaque()
        spec = GridSpec(initial_points=(5, 5), max_refinements=0)
        first = compile_surrogate(model, spec)
        assert compile_surrogate(model, spec) is first
        directory = surrogate_cache_dir()
        assert not list(directory.glob("*.npz"))

    def test_identity_memo_keys_on_the_grid_request(self):
        class Opaque(FETModel):
            def current(self, vgs, vds):
                if vds < 0.0:
                    return -self.current(vgs - vds, -vds)
                return 1e-4 * max(vgs, 0.0) * np.tanh(vds / 0.3)

        model = Opaque()
        coarse = compile_surrogate(
            model, GridSpec(initial_points=(8, 8), max_refinements=0)
        )
        fine = compile_surrogate(
            model, GridSpec(initial_points=(8, 8), max_refinements=1)
        )
        assert fine is not coarse
        assert coarse.table.shape == (8, 8)
        assert fine.table.shape == (15, 15)

    def test_compiling_a_surrogate_is_a_no_op(self):
        surrogate = compile_surrogate(NonSaturatingFET())
        assert compile_surrogate(surrogate) is surrogate

    @pytest.mark.parametrize(
        "build, changed",
        [
            (
                lambda: CNTFET.for_bandgap(0.56),
                lambda: CNTFET.for_bandgap(0.56, channel_length_nm=30.0),
            ),
            (
                lambda: CNTFET.for_bandgap(0.56),
                lambda: CNTFET.for_bandgap(0.56, t_ox_nm=2.0),
            ),
            (
                lambda: CNTFET.for_bandgap(0.56),
                lambda: CNTFET.for_bandgap(0.56, eps_ox=25.0),
            ),
            (
                lambda: CNTFET.for_bandgap(0.56),
                lambda: CNTFET.for_bandgap(0.56, temperature_k=350.0),
            ),
            (
                lambda: GNRFET(ArmchairGNR(18)),
                lambda: GNRFET(ArmchairGNR(18), mfp_override_nm=50.0),
            ),
            (
                lambda: SeriesResistanceFET(AlphaPowerFET(), 1e3, 2e3),
                lambda: SeriesResistanceFET(AlphaPowerFET(), 3e3, 2e3),
            ),
            (
                lambda: TrigateFET(),
                lambda: TrigateFET(fin_height_nm=40.0),
            ),
            (
                lambda: CNTFabricFET([AlphaPowerFET(), AlphaPowerFET()]),
                lambda: CNTFabricFET([AlphaPowerFET(), AlphaPowerFET(vt=0.3)]),
            ),
        ],
        ids=[
            "cntfet-channel_length_nm",
            "cntfet-t_ox_nm",
            "cntfet-eps_ox",
            "cntfet-temperature_k",
            "gnrfet-mfp_override_nm",
            "series-r_source_ohm",
            "trigate-fin_height_nm",
            "fabric-one-tube",
        ],
    )
    def test_one_changed_parameter_changes_the_key(self, build, changed):
        base, other = build(), changed()
        # Keyed over one box: only the model's own state may differ.
        spec = GridSpec(box=base.operating_box())
        assert self._key_of(base, spec) == self._key_of(build(), spec)
        assert self._key_of(base, spec) != self._key_of(other, spec)

    def test_key_does_not_depend_on_the_hash_seed(self):
        # Another process (a pool worker, the next CLI run) must find the
        # table this one wrote.
        script = (
            "from repro.devices.cntfet import CNTFET\n"
            "from repro.devices.surrogate import GridSpec, _cache_key\n"
            "model = CNTFET.reference_device()\n"
            "print(_cache_key(model, GridSpec(), model.operating_box(), True))\n"
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for seed in (1, 2, 3)
        }
        assert len(keys) == 1
        (key,) = keys
        assert len(key.strip()) == 32

    def test_key_is_unchanged_by_evaluation(self):
        model = CNTFET.reference_device()
        before = self._key_of(model)
        model.currents(np.linspace(0.0, 0.8, 5)[:, None], np.linspace(0.0, 0.8, 4))
        model.linearize(0.4, 0.3)
        assert self._key_of(model) == before


def _hammer_compile():
    """Pool worker: compile the same device into the same disk cache.

    Module level so ProcessPoolExecutor can pickle it; clears the
    (possibly fork-inherited) memory cache first so every worker really
    goes through the disk-cache write path and races the others.
    """
    surrogate_module.clear_surrogate_memory()
    spec = GridSpec(initial_points=(8, 8), max_refinements=1)
    surrogate = compile_surrogate(AlphaPowerFET(), spec)
    return surrogate.table


class TestConcurrentCacheWriters:
    """The disk cache under concurrent writers (recovery satellite)."""

    def test_pool_hammer_one_file_no_litter_identical_tables(self):
        from concurrent.futures import ProcessPoolExecutor

        directory = surrogate_cache_dir()
        # The workers inherit the cache directory through the environment.
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_hammer_compile) for _ in range(8)]
            tables = [future.result() for future in futures]
        for table in tables[1:]:
            assert np.array_equal(table, tables[0])
        # Exactly one published cache file, and no temp-file litter
        # regardless of how the writers interleaved.
        assert len(list(directory.glob("*.npz"))) == 1
        assert not list(directory.glob("*.tmp"))
        surrogate_module.clear_surrogate_memory()
        spec = GridSpec(initial_points=(8, 8), max_refinements=1)
        reloaded = compile_surrogate(AlphaPowerFET(), spec)
        assert np.array_equal(reloaded.table, tables[0])

    def test_interrupted_write_leaves_no_litter(self, monkeypatch):
        spec = GridSpec(initial_points=(8, 8), max_refinements=1)
        surrogate = compile_surrogate(AlphaPowerFET(), spec)
        directory = surrogate_cache_dir()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(surrogate_module.np, "savez", boom)
        target = directory / "interrupted.npz"
        surrogate_module._store_cached(target, surrogate, "payload")
        assert not target.exists()
        assert not list(directory.glob("*.tmp"))


class GatedDiode(FETModel):
    """A gated diode on the FET protocol: not source/drain symmetric.

    The gate plays "gate" and the diode bias plays "drain": forward bias
    conducts like a PN junction whatever the gate does, reverse bias
    conducts only once the gate is driven below -1 V (the tunnel-FET
    turn-on of Fig. 6), so the device declares ``mirror_symmetric =
    False`` and a two-sided ``vds`` box.
    """

    mirror_symmetric = False

    def operating_box(self) -> OperatingBox:
        return OperatingBox(vgs_min=-2.0, vgs_max=1.0, vds_min=-0.6, vds_max=0.6)

    def current(self, vgs: float, vds: float) -> float:
        forward = 1e-12 * np.expm1(vds / 0.04)
        gate_on = 1.0 / (1.0 + np.exp((vgs + 1.0) / 0.05))
        reverse = 0.05 * np.logaddexp(0.0, -vds / 0.05)
        return float(forward - 1e-6 * gate_on * reverse)


class TestAsymmetricDevices:
    def test_gated_diode_tabulates_both_polarities(self):
        spec = GridSpec(initial_points=(9, 9), max_refinements=1)
        surrogate = compile_surrogate(GatedDiode(), spec)
        assert not surrogate.mirror_symmetric
        assert surrogate.vds_grid[0] < 0.0 < surrogate.vds_grid[-1]
        # Reverse-bias BTBT sign survives: the mirror transform would
        # destroy the diode's forward/reverse asymmetry.
        assert surrogate.current(-1.8, -0.5) < 0.0
        assert surrogate.current(0.2, 0.4) > 0.0
