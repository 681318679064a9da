"""CNT tunnel-FET: the gated PIN diode of the paper's Fig. 6.

Device structure (Kreupl 2008, paper Ref. [19]): a carbon nanotube with a
naturally p-doped source segment, an intrinsic segment electrostatically
controlled by a common Si back gate through 10 nm thermal SiO2, and a
PEI-polymer n-doped drain segment.

Operating principle reproduced here:

* **Reverse bias** — the diode blocks; driving the gate negative pulls the
  gated segment's bands *up* until its valence-band top rises above the
  n-segment's conduction-band bottom.  Band-to-band tunneling (BTBT)
  through the junction then turns the device on abruptly: the turn-on is
  a band-alignment cutoff, not a thermal tail, so it can beat the
  60 mV/dec thermionic limit.  The measured turn-on is softened by
  phonon/trap-assisted tunneling through band tails, modelled with an
  Urbach energy; the paper reports SS = 83 mV/dec average with individual
  intervals at 32 mV/dec and ~1 mA/um on-current density.
* **Forward bias** — the diode conducts as a normal PN junction and the
  gate hardly modulates the current.

The junction electrostatics use the screening length of a back-gated
tube, lambda ~ sqrt(eps_ch d t_ox / eps_ox), which sets how sharp the
band bending — and therefore the achievable SS and on-current — can be.
The paper notes that high-k dielectrics and segmented gates (smaller
lambda) should improve the result; ``benchmarks/test_ablation_bench.py``
exercises exactly that knob.

Sign conventions: electron energies, p-segment (source) grounded, diode
voltage ``v_diode`` = V_p - V_n (forward positive).  The n reservoir's
chemical potential is therefore mu_n = +v_diode [eV].

Numerics: the direct BTBT current is the Landauer integral of the exact
WKB transmission (the junction's action in closed form, no position
grid; see ``repro.transport.tunneling``), taken with a converged
Gauss-Legendre energy rule.  :meth:`CNTTunnelFET.currents` evaluates a
whole curve of biases in one array call; ``current`` is its one-point
case and returns the same bits as the curve's element.
"""

from __future__ import annotations

import math

import numpy as np

from repro.physics.cnt import Chirality
from repro.physics.constants import H, KB_EV, Q, VFERMI
from repro.transport.tunneling import (
    JunctionProfile,
    _require_finite,
    junction_btbt_integral_ev,
    wkb_transmission_uniform_field,
)

__all__ = ["CNTTunnelFET"]


class CNTTunnelFET:
    """Gated CNT PIN diode operated as a tunnel FET.

    Parameters
    ----------
    chirality:
        Semiconducting tube (sets gap and screening length).
    t_ox_nm, eps_ox:
        Back-gate dielectric (default 10 nm thermal SiO2, as fabricated).
    gate_efficiency:
        d(band shift)/d(qV_G) of the gated segment, in (0, 1].
    n_degeneracy_ev, p_degeneracy_ev:
        How far the n-segment Fermi level sits above its conduction edge
        and the p-segment Fermi below its valence edge [eV].
    flatband_v:
        Gate voltage at which the gated segment is intrinsic.
    urbach_ev:
        Band-tail energy of the assisted-tunneling onset [eV]; sets the
        measured subthreshold swing (SS ~ urbach * ln10 / gate_efficiency).
    eps_channel:
        Effective channel/environment permittivity entering the
        screening length.

    Every parameter must be finite; a NaN or infinite one raises
    ``ValueError`` naming it, as does a non-finite bias.
    """

    def __init__(
        self,
        chirality: Chirality,
        t_ox_nm: float = 10.0,
        eps_ox: float = 3.9,
        gate_efficiency: float = 0.85,
        n_degeneracy_ev: float = 0.05,
        p_degeneracy_ev: float = 0.05,
        flatband_v: float = 0.0,
        urbach_ev: float = 0.030,
        diode_saturation_a: float = 3e-10,
        temperature_k: float = 300.0,
        eps_channel: float = 2.0,
    ):
        if not chirality.is_semiconducting:
            raise ValueError(f"TFET needs a semiconducting tube, got {chirality}")
        if not 0.0 < gate_efficiency <= 1.0:
            raise ValueError(f"gate_efficiency must be in (0, 1], got {gate_efficiency}")
        for name, value in (
            ("t_ox_nm", t_ox_nm),
            ("eps_ox", eps_ox),
            ("eps_channel", eps_channel),
            ("urbach_ev", urbach_ev),
            ("temperature_k", temperature_k),
        ):
            _require_finite(name, value, positive=True)
        for name, value in (
            ("n_degeneracy_ev", n_degeneracy_ev),
            ("p_degeneracy_ev", p_degeneracy_ev),
            ("flatband_v", flatband_v),
            ("diode_saturation_a", diode_saturation_a),
        ):
            _require_finite(name, value)
        self.chirality = chirality
        self.gap_ev = chirality.bandgap_ev()
        self.t_ox_nm = t_ox_nm
        self.eps_ox = eps_ox
        self.gate_efficiency = gate_efficiency
        self.n_degeneracy_ev = n_degeneracy_ev
        self.p_degeneracy_ev = p_degeneracy_ev
        self.flatband_v = flatband_v
        self.urbach_ev = urbach_ev
        self.diode_saturation_a = diode_saturation_a
        self.temperature_k = temperature_k
        self.screening_length_nm = math.sqrt(
            eps_channel * chirality.diameter_nm * t_ox_nm / eps_ox
        )
        self._kt = KB_EV * temperature_k

    # -- band positions (scalars or arrays) -----------------------------------
    def channel_midgap_ev(self, v_gate):
        """Midgap of the gated segment [eV], source-midgap referenced.

        Negative gate drive raises electron energies (bands move up).
        """
        return -self.gate_efficiency * (v_gate - self.flatband_v)

    def n_conduction_edge_ev(self, v_diode):
        """Conduction-band bottom of the n segment [eV]: mu_n - xi_n."""
        return v_diode - self.n_degeneracy_ev

    def band_overlap_ev(self, v_gate, v_diode):
        """Tunnel-window width [eV]: gated-segment E_v top minus n-segment E_c.

        Positive overlap means BTBT is energetically allowed.  Reverse
        bias (v_diode < 0) and negative gate drive both widen the window —
        the "very sharp turn-on with gate voltage going negative" of
        Fig. 6(b).
        """
        ev_channel_top = self.channel_midgap_ev(v_gate) - self.gap_ev / 2.0
        return ev_channel_top - self.n_conduction_edge_ev(v_diode)

    def junction_field_v_per_m(self, v_gate, v_diode):
        """Characteristic junction field: (E_g + overdrive) / (2 lambda)."""
        overdrive = np.maximum(self.band_overlap_ev(v_gate, v_diode), 0.0)
        return (self.gap_ev + overdrive) / (2.0 * self.screening_length_nm * 1e-9)

    # -- current components (arrays over the broadcast biases) ----------------
    def btbt_current_a(self, v_gate, v_diode) -> np.ndarray:
        """Direct BTBT current [A] (diode sign: reverse-bias BTBT < 0).

        Landauer integral of the exact WKB transmission over the open
        tunnel window (:func:`junction_btbt_integral_ev`, one call for
        every bias).  Electrons tunnel between gated-segment valence
        states (equilibrated with the grounded p source) and n-segment
        conduction states (chemical potential +v_diode); the electron flow
        p -> n is a *negative* diode current.  Energies are referenced to
        the gated segment's midgap, the profile's source side.
        """
        u_channel = self.channel_midgap_ev(v_gate)
        u_n = self.n_conduction_edge_ev(v_diode) - self.gap_ev / 2.0
        profile = JunctionProfile(
            gap_ev=self.gap_ev,
            delta_ev=u_n - u_channel,
            lambda_nm=self.screening_length_nm,
        )
        integral_ev = junction_btbt_integral_ev(
            profile, -u_channel, v_diode - u_channel, self.temperature_k
        )
        return -4.0 * Q * Q / H * integral_ev

    def assisted_current_a(self, v_gate, v_diode) -> np.ndarray:
        """Band-tail (phonon/trap) assisted tunneling current [A].

        Uses the analytic uniform-field two-band WKB transmission at the
        junction field and an Urbach activation exp(overlap / E_U) below
        the hard onset.  This is what limits the measured SS to tens of
        mV/dec instead of the ideal hard cutoff.
        """
        overlap = self.band_overlap_ev(v_gate, v_diode)
        field = self.junction_field_v_per_m(v_gate, v_diode)
        transmission = wkb_transmission_uniform_field(self.gap_ev, field, VFERMI)
        activation = np.exp(np.minimum(overlap, 0.0) / self.urbach_ev)
        # Thermal occupancy asymmetry of the two reservoirs at the window
        # edge: full for a wide split, -> 0 as v_diode -> 0.
        split = 1.0 - np.exp(-np.abs(v_diode) / self._kt)
        magnitude = (
            4.0 * Q * Q / H * transmission * self.urbach_ev * activation * split
        )
        # Same sign as the bias: negative (n -> p electron deficit) in
        # reverse, positive Esaki-like addition in forward.
        return np.copysign(magnitude, v_diode)

    def diode_current_a(self, v_diode):
        """Thermionic PN-diode component [A]: I_s (exp(V/n vT) - 1), n ~ 1.2."""
        ideality = 1.2
        exponent = np.asarray(v_diode, dtype=float) / (ideality * self._kt)
        return self.diode_saturation_a * (np.exp(np.minimum(exponent, 60.0)) - 1.0)

    def currents(self, v_gate, v_diode) -> np.ndarray:
        """Total terminal current [A] at every (broadcast) bias pair.

        The one array kernel: diode, direct BTBT and assisted components
        each evaluated once over all biases.  Each element depends only on
        its own bias, so any sub-array gives the same bits.
        """
        v_gate, v_diode = np.broadcast_arrays(
            np.asarray(v_gate, dtype=float), np.asarray(v_diode, dtype=float)
        )
        _require_finite("v_gate", v_gate)
        _require_finite("v_diode", v_diode)
        return (
            self.diode_current_a(v_diode)
            + self.btbt_current_a(v_gate, v_diode)
            + self.assisted_current_a(v_gate, v_diode)
        )

    def current(self, v_gate: float, v_diode: float) -> float:
        """Total terminal current [A] (diode convention: forward positive).

        The one-point case of :meth:`currents`.
        """
        return float(self.currents(np.array([v_gate], dtype=float), v_diode)[0])

    # -- figures of merit -------------------------------------------------------
    def transfer_curve(self, v_gate_values, v_diode: float) -> np.ndarray:
        """|I|(V_G) at fixed diode bias [A]."""
        return np.abs(self.currents(v_gate_values, v_diode))

    def subthreshold_swing_mv_per_decade(
        self,
        v_diode: float = -0.5,
        v_gate_window: tuple[float, float] = (-2.0, 1.0),
        n_points: int = 401,
        floor_a: float = 1e-12,
    ) -> float:
        """Minimum SS [mV/dec] of the reverse-bias BTBT turn-on."""
        v_gate = np.linspace(v_gate_window[0], v_gate_window[1], n_points)
        current = self.transfer_curve(v_gate, v_diode)
        log_i = np.log10(np.clip(current, 1e-18, None))
        dlog = np.diff(log_i)
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.abs(np.diff(v_gate) / dlog)
        valid = slopes[(dlog != 0.0) & (current[:-1] > floor_a)]
        if valid.size == 0:
            raise RuntimeError("no turn-on found in the gate window")
        return float(np.min(valid)) * 1e3

    def on_current_density_a_per_m(
        self, v_gate: float = -2.0, v_diode: float = -0.5
    ) -> float:
        """On-state current normalised by tube diameter [A/m]."""
        return abs(self.current(v_gate, v_diode)) / (self.chirality.diameter_nm * 1e-9)

    def __repr__(self) -> str:
        return (
            f"CNTTunnelFET(({self.chirality.n},{self.chirality.m}), "
            f"Eg={self.gap_ev:.3f} eV, t_ox={self.t_ox_nm} nm, "
            f"lambda={self.screening_length_nm:.2f} nm)"
        )
