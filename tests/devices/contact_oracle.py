"""Scalar brentq oracle of the series-resistance contact equation.

Shared by ``tests/devices/test_contacts.py`` and
``benchmarks/test_transport_bench.py``, so the tests and the benchmark
check the batched :class:`~repro.devices.contacts.SeriesResistanceFET`
solve against the same reference.
"""

from scipy.optimize import brentq

from repro.devices.contacts import SeriesResistanceFET


def brentq_current(device: SeriesResistanceFET, vgs: float, vds: float) -> float:
    """Oracle: the scalar bracketed brentq solve of the contact equation.

    I = inner(vgs - I R_s, vds - I (R_s + R_d)) on [0, I_intrinsic], one
    scalar root find per bias point, independent of the production
    batched Illinois solve.
    """
    if vds < 0.0:
        # Terminal exchange also swaps which resistor plays "source".
        mirrored = SeriesResistanceFET(device.inner, device.r_drain_ohm, device.r_source_ohm)
        return -brentq_current(mirrored, vgs - vds, -vds)
    if device.total_resistance_ohm == 0.0:
        return device.inner.current(vgs, vds)

    def residual(current: float) -> float:
        internal_vgs = vgs - current * device.r_source_ohm
        internal_vds = vds - current * device.total_resistance_ohm
        return device.inner.current(internal_vgs, internal_vds) - current

    upper = device.inner.current(vgs, vds)
    if upper <= 0.0:
        return upper
    if residual(upper) >= 0.0:
        return upper
    return float(brentq(residual, 0.0, upper, xtol=1e-18, rtol=1e-12))
