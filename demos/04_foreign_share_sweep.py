"""Sweep the foreign ownership share on a synthetic population.

The generator keeps every firm's coordinates and turnover fixed while the
domestic/foreign boundary moves, so the curve isolates the labeling effect.
Endpoints are exact by construction: no foreign firms means a zero foreign
contribution, all foreign means the whole measure is foreign.
"""
import io

from thsynergy import SynthParams, sweep_foreign_share

params = SynthParams(
    n_firms=400,
    n_municipalities=10,
    n_size_classes=6,
    n_tech_groups=8,
    coupling=0.8,
    turnover_law="lognormal",
    lognormal_mu=17.0,
    lognormal_sigma=0.9,
    seed=2013,
)

shares = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
curve = sweep_foreign_share(params, shares)

print(f"{params.n_firms} firms, coupling {params.coupling}, seed {params.seed}")
print()
print(f"{'share':>6}  {'turnover share':>14}  {'synergy share':>13}")
for point in curve.points:
    report = point.report
    synergy = "undefined" if report.foreign_synergy_share is None else f"{report.foreign_synergy_share:.4f}"
    print(f"{point.share:>6.2f}  {report.foreign_turnover_share:>14.4f}  {synergy:>13}")

buffer = io.StringIO()
curve.to_csv(buffer)
print()
print("CSV serialization, as `thsynergy sweep` writes it:")
print(buffer.getvalue())
