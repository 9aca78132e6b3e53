#!/usr/bin/env python3
"""Standard vs receptive-field input wiring.

Standard wiring scatters each input neuron's connections across the whole
reservoir; receptive-field wiring confines them to a window of columns
around the pixel's scaled position, preserving spatial order so nearby
pixels excite nearby reservoir columns.
"""

from lsmkit import GridDims, InputSpec, ReceptiveField, build_input
from lsmkit.inputs import anchor_of

dims = GridDims(20, 20, 10)

standard = build_input(
    InputSpec(n_inputs=64 * 64, input_weight=8.0, density=0.01), dims, seed=1
)
rf = build_input(
    InputSpec(
        n_inputs=64 * 64,
        input_weight=8.0,
        density=0.15,
        scheme="receptive_field",
        field=ReceptiveField(window=5, input_width=64, input_height=64),
    ),
    dims,
    seed=1,
)

for name, imap in (("standard", standard), ("receptive-field", rf)):
    pos = (imap.weight > 0).sum()
    neg = (imap.weight < 0).sum()
    print(f"{name}: {imap.n_edges} edges, {pos} positive / {neg} negative")

print()
print("Where do the connections of three pixels land? (x-coordinate spread)")
field = ReceptiveField(window=5, input_width=64, input_height=64)
for px, py in ((0, 0), (32, 32), (63, 63)):
    i = py * 64 + px
    ax, ay = anchor_of(px, py, field, dims)
    for name, imap in (("standard", standard), ("receptive", rf)):
        # an input's targets are its column of the input-major matrix
        m = imap.matrix
        targets = m.indices[m.indptr[i] : m.indptr[i + 1]]
        tx = targets % dims.nx
        ty = (targets // dims.nx) % dims.ny
        print(
            f"  pixel ({px:>2},{py:>2}) anchor ({ax:>2},{ay:>2})  {name:>10}: "
            f"x span [{tx.min()}, {tx.max()}], y span [{ty.min()}, {ty.max()}], "
            f"{targets.size} targets"
        )
print()
print("The receptive-field spans stay within +/-2 of the anchor (window 5),")
print("while standard wiring covers the full grid. Every input neuron keeps")
print("an equal number of positive and negative connections either way.")
