"""Walk through the signed three-way measure on tiny hand-built cubes.

The measure is an alternating sum of seven entropies. Its sign is the
interesting part: negative means the three dimensions are bound together
more tightly than any pairwise view reveals, positive means they largely
repeat each other.
"""
from thsynergy import ContingencyCube, decompose, ternary_information

# Two categories per axis. A cell is one int: coordinates (g, o, t) are the
# digits (g * 2 + o) * 2 + t, and the cube's shape gives each radix (G, the
# leading digit, needs none).
SHAPE = (None, 2, 2)


def cell(g, o, t):
    return (g * 2 + o) * 2 + t


# A parity population: the technology coordinate is the XOR of the other two.
# Any single dimension looks uniform, any pair looks uniform, only the triple
# has structure.
parity = ContingencyCube(
    dims=("G", "O", "T"),
    shape=SHAPE,
    domestic={
        cell(0, 0, 0): 1,
        cell(0, 1, 1): 1,
        cell(1, 0, 1): 1,
        cell(1, 1, 0): 1,
    },
    foreign={},
)

profile = decompose(parity).profile()
print("parity cube entropies")
print(f"  singles:  G={profile.h_g}  O={profile.h_o}  T={profile.h_t}")
print(f"  pairs:    GO={profile.h_go}  GT={profile.h_gt}  OT={profile.h_ot}")
print(f"  triple:   GOT={profile.h_got}")
print(f"  signed measure: {ternary_information(profile)}  (fully synergistic)")
print()

# The opposite extreme: all three coordinates always agree.
aligned = ContingencyCube(
    dims=("G", "O", "T"),
    shape=SHAPE,
    domestic={cell(0, 0, 0): 1, cell(1, 1, 1): 1},
    foreign={},
)
print("aligned cube (every dimension copies the others)")
print(f"  signed measure: {ternary_information(decompose(aligned).profile())}  (pure redundancy)")
print()

# Independence sits exactly at zero: a uniform cube factorizes.
uniform = ContingencyCube(
    dims=("G", "O", "T"),
    shape=SHAPE,
    domestic={cell(g, o, t): 1 for g in (0, 1) for o in (0, 1) for t in (0, 1)},
    foreign={},
)
print("uniform independent cube")
print(f"  signed measure: {ternary_information(decompose(uniform).profile())}")
