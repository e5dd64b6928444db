"""Split the signed measure into domestic, foreign and mixing contributions.

Every marginal entropy splits exactly against the full population total, so
the alternating sum splits too:

    total = domestic + foreign_only + cross

The combined foreign contribution (foreign_only + cross) is what the region
loses if its foreign-owned firms disappear and nothing else moves.
"""
from thsynergy import Tally, decompose, marginalize, split_entropy, subgroup_synergy

# A toy region: domestic firms concentrated in two municipality/size/tech
# niches, foreign firms bridging a third combination. Each firm is a
# (cell, foreign, turnover) triple. A cell is one int: municipality g, size
# class o and tech group t + 1 are the digits (g * 2 + o) * 10 + t of a cube
# of shape (None, 2, 10), two size classes and the ten tech groups.
WEST, EAST = 0, 1
SMALL, MEDIUM = 0, 1  # 1-4 and 20-49 employees
tally = Tally((None, 2, 10))
for (g, o, t), foreign, turnover, count in [
    ((WEST, SMALL, 1), False, 8e6, 6),
    ((EAST, MEDIUM, 4), False, 30e6, 6),
    ((WEST, MEDIUM, 4), True, 90e6, 3),
    ((EAST, SMALL, 1), True, 12e6, 3),
]:
    for _ in range(count):
        tally.add((g * 2 + o) * 10 + t, foreign, turnover)

cube = tally.cube()
dec = decompose(cube)

print(f"{cube.total} firms, {sum(cube.foreign.values())} foreign")
print(f"  total measure:     {dec.total:+.6f}")
print(f"  domestic part:     {dec.domestic:+.6f}")
print(f"  foreign-only part: {dec.foreign_only:+.6f}")
print(f"  cross part:        {dec.cross:+.6f}")
print(f"  combined foreign:  {dec.foreign:+.6f}")
print()
resummed = dec.domestic + dec.foreign_only + dec.cross
print(f"additivity: parts re-sum to {resummed:.12f}, total is {dec.total:.12f}")
print(f"  gap {abs(resummed - dec.total):.1e} (re-summing uses a different accumulation order)")
print()

# The same split seen on one marginal: the municipality axis alone.
marginal = marginalize(cube, ("G",))
term = split_entropy(marginal.domestic, marginal.foreign, cube.total)
print("municipality marginal entropy split")
print(f"  domestic {term.domestic:.6f} + foreign {term.foreign:.6f} "
      f"+ cross {term.cross:.6f} = {term.total:.6f}")
print()

# Renormalizing a subgroup by its own size answers a different question
# (how synergistic are the foreign firms among themselves?) and is kept
# apart from the additive split.
print("foreign firms as their own population:",
      f"{subgroup_synergy(cube, foreign=True):+.6f}")
print("additive foreign term (full denominator):", f"{dec.foreign:+.6f}")
