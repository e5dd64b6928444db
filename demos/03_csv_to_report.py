"""End to end: firm CSV in, region report out.

Mirrors what `thsynergy compute` does, but step by step: validate, parse,
classify, build the cube, decompose, and attach the domestic-vs-foreign
chi-square over technology groups.
"""
import json
from pathlib import Path

from thsynergy import (
    DegenerateTable,
    build_cube,
    chi_square_homogeneity,
    classify_all,
    ownership_tech_table,
    parse_firm_records,
    region_report,
    validate_firm_csv,
)

data_path = Path(__file__).parent / "data" / "firms_demo.csv"

with open(data_path, "rb") as fh:
    rows, issues = validate_firm_csv(fh)
print(f"validation: {rows} rows, {len(issues)} issues")
for line, message in issues:
    print(f"  line {line}: {message}")

with open(data_path, "rb") as fh:
    records = parse_firm_records(fh)
firms = classify_all(records)

report = region_report(firms)
print()
print("region report")
print(json.dumps(report.to_dict(), indent=2))

profile = report.synergy.profile()  # the entropies behind the report's decomposition
print()
print(f"entropies (bits): triple {profile.h_got:.4f}, "
      f"pairs {profile.h_go:.4f}/{profile.h_gt:.4f}/{profile.h_ot:.4f}")

categories, table = ownership_tech_table(build_cube(firms))
try:
    chi = chi_square_homogeneity(table)
    print()
    print(f"domestic vs foreign over technology groups {categories}:")
    print(f"  statistic {chi.statistic:.4f}, dof {chi.dof}, p {chi.p_value:.4f}")
except DegenerateTable as exc:
    print(f"chi-square undefined: {exc}")
