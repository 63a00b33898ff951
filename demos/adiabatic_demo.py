#!/usr/bin/env python3
"""Adiabatic Exact Cover on the bundled instances.

Starts every run in the uniform superposition (the known ground state of
the transverse-field begin operator) and interpolates linearly into the
clause-violation counter, applying H(s) as a sparse matrix. Slow enough
schedules keep the state near the instantaneous ground state, so the
final state concentrates on the zero set of the cost operator: the
satisfying assignments, which the brute-force enumerator lists
independently.

Writes demos/output/adiabatic_success.svg.
"""
from pathlib import Path

from clab.reduction import (
    bitstring_satisfies,
    brute_force_exact_cover,
    load_instance,
    most_probable_bitstring,
    success_sweep,
)
from clab.svgplot import Series, line_chart

REPO = Path(__file__).resolve().parents[1]
OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

times = [1, 2, 4, 8, 16, 32, 64]
series = []
for name in ("ec_n3_single.json", "ec_n6_unique.json"):
    inst = load_instance(REPO / "instances" / name)
    satisfying = brute_force_exact_cover(inst)
    print(f"{name}: n={inst.n}, {len(inst.clauses)} clauses, "
          f"{len(satisfying)} satisfying assignment(s) by brute force: {satisfying}")
    sweep = success_sweep(inst, times)
    print(f"  zero set of the cost operator: {sweep.satisfying_count} assignment(s)")
    for row in sweep.rows:
        print(f"  T={row['T']:<5g} steps={row['steps']:<6} success={row['success_probability']:.4f} "
              f"probability_error={row['probability_error']:.1e} state_error={row['state_error']:.1e}")
    series.append(Series(label=f"n={inst.n}", xs=tuple(r["T"] for r in sweep.rows),
                         ys=tuple(r["success_probability"] for r in sweep.rows)))

    # Read out the most probable assignment of the longest run and check it.
    best = most_probable_bitstring(sweep.state, inst.n)
    print(f"  most probable bitstring at T={times[-1]}: {best} "
          f"(satisfies all clauses: {bitstring_satisfies(inst, best)})\n")

chart = line_chart(
    series,
    title="Success probability vs schedule time",
    xlabel="total time T",
    ylabel="weight on satisfying assignments",
    logx=True,
)
path = OUT / "adiabatic_success.svg"
path.write_text(chart)
print(f"wrote {path}")
