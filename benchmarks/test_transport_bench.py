"""Bench TRANSPORT: batched transport kernels vs their scalar references.

Contact solve.
The Fig. 5 contact-degraded transfer curve — 105 gate biases of the
paper's reference ballistic CNT-FET behind two 20 nm transfer-length
contacts — solved (a) point by point with scipy's ``brentq`` around the
scalar top-of-barrier solve, the path ``SeriesResistanceFET`` used to
take, and (b) through ``SeriesResistanceFET.currents``: one vectorised
Illinois iteration whose every step is a single batched
``TopOfBarrierSolver`` call over the still-open points.  The currents
are asserted equal at 1e-9 relative and the batched path >= 10x faster.
The oracle is the one ``tests/devices/test_contacts.py`` checks against.

Charge kernel.  The same transfer curve through the production
top-of-barrier kernel (every subband of a slab in one ``(points,
subbands, k)`` block on a temperature-sized k grid, 128 samples at
300 K) and through the per-subband, 256-sample loop it replaced, kept
in ``tests/physics/barrier_oracle.py``.  The currents are asserted
equal at 1e-12 relative and the block kernel >= 1.3x faster (measured
1.6-2.2x on a 2-vCPU VM: 22-33 ms against 39-62 ms).

Band-to-band tunneling.  The Fig. 6 reverse transfer curve — 201 gate
biases of the paper's CNT tunnel FET at V_D = -0.5 V — through
``CNTTunnelFET.btbt_current_a``: one closed-form array kernel over every
bias.  Its currents are asserted equal to the nested adaptive-quadrature
oracle of ``tests/transport/tunneling_oracle.py`` at 1e-8 relative (every
20th bias with an open tunnel window), and the kernel >= 10x faster than
the WKB grid it replaced (161 energies x 400 positions per bias, cut at
+-12 lambda), kept below only as the timing reference.

Timings print as informational rows; the assertions are the gate.
"""

import sys
import time
from pathlib import Path

import numpy as np

from conftest import fig5_contact_transfer_case, print_rows

from repro.devices.base import transfer_curve

from repro.devices.tfet import CNTTunnelFET
from repro.experiments.fig6 import GAP_EV, REVERSE_BIAS_V
from repro.physics.cnt import chirality_for_gap
from repro.physics.constants import H, Q
from repro.physics.fermi import fermi_dirac
from repro.transport.tunneling import JunctionProfile

_TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(_TESTS / "devices"))
sys.path.insert(0, str(_TESTS / "physics"))
sys.path.insert(0, str(_TESTS / "transport"))
from barrier_oracle import with_loop_kernel  # noqa: E402
from contact_oracle import brentq_current  # noqa: E402
from tunneling_oracle import (  # noqa: E402
    imaginary_dispersion_per_m,
    midgap_ev,
    quad_btbt_current_a,
)

SPEEDUP_BAR = 10.0
KERNEL_SPEEDUP_BAR = 1.3
BTBT_RTOL = 1e-8


def _best_of(repeats, fn):
    """(result, best wall time [s]) of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_batched_contact_solve_beats_brentq_oracle():
    device, vgs, vds = fig5_contact_transfer_case()

    batched, batched_s = _best_of(3, lambda: transfer_curve(device, vgs, vds))
    oracle, oracle_s = _best_of(
        3, lambda: np.array([brentq_current(device, float(v), vds) for v in vgs])
    )

    speedup = oracle_s / batched_s
    print_rows(
        f"{vgs.size}-point contact-degraded CNT-FET transfer curve",
        [("brentq oracle [s]", oracle_s),
         ("batched Illinois [s]", batched_s),
         ("speedup", speedup)],
    )
    np.testing.assert_allclose(batched, oracle, rtol=1e-9, atol=1e-18)
    assert speedup >= SPEEDUP_BAR


def test_block_charge_kernel_matches_and_beats_loop_kernel():
    device, vgs, vds = fig5_contact_transfer_case()
    loop_device = with_loop_kernel(device)

    block, block_s = _best_of(3, lambda: transfer_curve(device, vgs, vds))
    loop, loop_s = _best_of(3, lambda: transfer_curve(loop_device, vgs, vds))

    speedup = loop_s / block_s
    print_rows(
        f"{vgs.size}-point contact-degraded CNT-FET transfer curve (fig5), charge kernel",
        [("per-subband 256-sample loop [s]", loop_s),
         ("(points, subbands, k) block [s]", block_s),
         ("speedup", speedup),
         ("max rel. deviation", float(np.max(np.abs(block / loop - 1.0))))],
    )
    np.testing.assert_allclose(block, loop, rtol=1e-12, atol=0.0)
    assert speedup >= KERNEL_SPEEDUP_BAR


def grid_btbt_current_a(device, v_gate: float, v_diode: float) -> float:
    """The replaced WKB grid: trapezoid over 161 energies x 400 positions.

    Timing reference only: its position sum is not converged (fig6's
    on-current read 6.9e-4 high with it).
    """
    u_channel = float(device.channel_midgap_ev(v_gate))
    half_gap = device.gap_ev / 2.0
    profile = JunctionProfile(
        device.gap_ev,
        float(device.n_conduction_edge_ev(v_diode)) - half_gap - u_channel,
        device.screening_length_nm,
    )
    lo, hi = profile.tunnel_window_ev()
    if lo >= hi:
        return 0.0
    energies = np.linspace(lo, hi, 161)
    x_nm = np.linspace(-12.0 * profile.lambda_nm, 12.0 * profile.lambda_nm, 400)
    kappa = imaginary_dispersion_per_m(
        energies[1:-1, None] - midgap_ev(profile, x_nm), device.gap_ev
    )
    transmission = np.zeros_like(energies)
    transmission[1:-1] = np.exp(-2.0 * np.sum(kappa, axis=1) * (x_nm[1] - x_nm[0]) * 1e-9)
    occupancy = fermi_dirac(energies + u_channel, 0.0, device.temperature_k) - fermi_dirac(
        energies + u_channel, v_diode, device.temperature_k
    )
    return -4.0 * Q * Q / H * float(np.trapezoid(transmission * occupancy, energies))


def test_btbt_kernel_matches_quad_oracle_and_beats_wkb_grid():
    device = CNTTunnelFET(chirality_for_gap(GAP_EV))
    v_gate = np.linspace(-2.0, 1.0, 201)

    kernel_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel = device.btbt_current_a(v_gate, REVERSE_BIAS_V)
        kernel_s = min(kernel_s, time.perf_counter() - start)

    start = time.perf_counter()
    grid = np.array([grid_btbt_current_a(device, float(v), REVERSE_BIAS_V) for v in v_gate])
    grid_s = time.perf_counter() - start

    open_window = np.flatnonzero(kernel != 0.0)
    sampled = open_window[np.linspace(0, open_window.size - 1, 12).astype(int)]
    oracle = np.array(
        [quad_btbt_current_a(device, float(v_gate[i]), REVERSE_BIAS_V) for i in sampled]
    )

    speedup = grid_s / kernel_s
    print_rows(
        f"{v_gate.size}-point CNT tunnel-FET BTBT transfer curve (fig6)",
        [("161x400 WKB grid [s]", grid_s),
         ("closed-form array kernel [s]", kernel_s),
         ("speedup", speedup),
         ("max rel. deviation from quad oracle", float(np.max(np.abs(kernel[sampled] / oracle - 1.0)))),
         ("max rel. deviation of the grid", float(np.max(np.abs(grid[open_window] / kernel[open_window] - 1.0))))],
    )
    np.testing.assert_array_equal(grid == 0.0, kernel == 0.0)
    np.testing.assert_allclose(kernel[sampled], oracle, rtol=BTBT_RTOL)
    assert speedup >= SPEEDUP_BAR
