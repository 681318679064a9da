"""Bench TRANSPORT: the batched contact solve vs the scalar brentq oracle.

The Fig. 5 contact-degraded transfer curve — 105 gate biases of the
paper's reference ballistic CNT-FET behind two 20 nm transfer-length
contacts — solved (a) point by point with scipy's ``brentq`` around the
scalar top-of-barrier solve, the path ``SeriesResistanceFET`` used to
take, and (b) through ``SeriesResistanceFET.currents``: one vectorised
Illinois iteration whose every step is a single batched
``TopOfBarrierSolver`` call over the still-open points.  The currents
are asserted equal at 1e-9 relative and the batched path >= 10x faster.
The oracle is the one ``tests/devices/test_contacts.py`` checks against.

Timings print as informational rows; the assertions are the gate.
"""

import sys
import time
from pathlib import Path

import numpy as np

from conftest import fig5_contact_transfer_case, print_rows

from repro.devices.base import transfer_curve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "devices"))
from contact_oracle import brentq_current  # noqa: E402

SPEEDUP_BAR = 10.0


def test_batched_contact_solve_beats_brentq_oracle():
    device, vgs, vds = fig5_contact_transfer_case()

    batched_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched = transfer_curve(device, vgs, vds)
        batched_s = min(batched_s, time.perf_counter() - start)

    start = time.perf_counter()
    oracle = np.array([brentq_current(device, float(v), vds) for v in vgs])
    oracle_s = time.perf_counter() - start

    speedup = oracle_s / batched_s
    print_rows(
        f"{vgs.size}-point contact-degraded CNT-FET transfer curve",
        [("brentq oracle [s]", oracle_s),
         ("batched Illinois [s]", batched_s),
         ("speedup", speedup)],
    )
    np.testing.assert_allclose(batched, oracle, rtol=1e-9, atol=1e-18)
    assert speedup >= SPEEDUP_BAR
