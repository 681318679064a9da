"""Bench ABL: ablations on the design choices the paper argues about.

Dark space (Skotnicki & Boeuf), ballisticity vs channel length and
contact length scaling.
"""

import numpy as np

from conftest import print_rows

from repro.experiments.ablations import (
    run_ballisticity_ablation,
    run_contact_length_ablation,
    run_dark_space_ablation,
)


def run_all_ablations():
    return (
        run_dark_space_ablation(),
        run_ballisticity_ablation(),
        run_contact_length_ablation(),
    )


def test_ablations_regeneration(benchmark):
    dark, ballistic, contact = benchmark.pedantic(
        run_all_ablations, rounds=1, iterations=1
    )

    rows = []
    for material, ss in dark.ss_by_material.items():
        rows.append((f"SS @ 9 nm, {material} [mV/dec]", float(np.interp(
            9.0, dark.gate_lengths_nm, ss
        ))))
    rows += [
        (f"ballisticity @ {l:g} nm", float(t))
        for l, t in zip(ballistic.channel_lengths_nm, ballistic.transmission)
    ]
    rows += [
        (f"series R @ L_c = {l:g} nm [kOhm]", float(r / 1e3))
        for l, r in zip(contact.contact_lengths_nm, contact.series_resistance_ohm)
    ]
    print_rows("Ablations", rows)

    # Dark space: CNT best, III-V worst, penalty shrinks at long L.
    assert dark.penalty_at(9.0, "InAs") > dark.penalty_at(9.0, "Si") > 1.0
    assert dark.penalty_at(30.0, "InAs") < dark.penalty_at(9.0, "InAs")
    # Ballisticity and contact resistance are monotone.
    assert np.all(np.diff(ballistic.on_current_a) < 0.0)
    assert np.all(np.diff(contact.series_resistance_ohm) < 0.0)
