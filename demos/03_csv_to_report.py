"""End to end: firm CSV in, region report out.

Mirrors what `thsynergy compute` does, step by step on one scan, one tally:
the scan checks and classifies every row and hands each accepted firm to the
tally, the report decomposes the tally's cube and sums its turnovers, and the
domestic-vs-foreign chi-square over technology groups comes from the same
cube.
"""
import json
from pathlib import Path

from thsynergy import (
    DegenerateTable,
    Tally,
    chi_square_homogeneity,
    cube_report,
    ownership_tech_table,
    validate_firm_csv,
)

data_path = Path(__file__).parent / "data" / "firms_demo.csv"

tally = Tally()
with open(data_path, "rb") as fh:
    rows, issues = validate_firm_csv(fh, add=tally.add)
print(f"validation: {rows} rows, {len(issues)} issues")
for line, message in issues:
    print(f"  line {line}: {message}")

report = cube_report(tally)
print()
print("region report")
print(json.dumps(report.to_dict(), indent=2))

profile = report.synergy.profile()  # the entropies behind the report's decomposition
print()
print(f"entropies (bits): triple {profile.h_got:.4f}, "
      f"pairs {profile.h_go:.4f}/{profile.h_gt:.4f}/{profile.h_ot:.4f}")

categories, table = ownership_tech_table(tally.cube())
try:
    chi = chi_square_homogeneity(table)
    print()
    print(f"domestic vs foreign over technology groups {categories}:")
    print(f"  statistic {chi.statistic:.4f}, dof {chi.dof}, p {chi.p_value:.4f}")
except DegenerateTable as exc:
    print(f"chi-square undefined: {exc}")
