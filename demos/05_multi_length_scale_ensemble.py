#!/usr/bin/env python3
"""Multi-length-scale ensemble members see the same input differently.

Three reservoirs wired at distance offsets d = 0, 4, 6 receive the same
receptive-field-mapped input. Their recurrent circuits prefer different
connection lengths, so their spike-count representations of one stimulus
decorrelate, which is what makes concatenating them worthwhile.
"""

import numpy as np

from lsmkit import (
    ConnectionLaw,
    GridDims,
    InputSpec,
    NeuronParams,
    ReceptiveField,
    build_input,
    build_reservoir,
    run_mulre,
)

params = NeuronParams(tau_v=16, tau_u=16)
dims = GridDims(10, 10, 12)
width = height = 16

members = []
for i, d in enumerate((0.0, 4.0, 6.0)):
    topo = build_reservoir(dims, ConnectionLaw(lam=2.0, d=d), params, seed=1 + i)
    imap = build_input(
        InputSpec(
            n_inputs=width * height,
            input_weight=6.0,
            density=0.1,
            scheme="receptive_field",
            field=ReceptiveField(window=5, input_width=width, input_height=height),
        ),
        dims,
        seed=11 + i,
    )
    members.append((topo, imap))

rng = np.random.default_rng(5)
pattern = (rng.random(width * height) < 0.3).astype(float)
rates = np.where(rng.random((200, width * height)) < pattern * 0.5, 1.0, 0.0)

records = run_mulre(rates, members, params)
print("member spike statistics on the same 200-step stimulus:")
for (topo, _), rec in zip(members, records):
    print(
        f"  d = {topo.law.d}: total spikes {rec.counts.sum():>6}, "
        f"mean rate {rec.counts.sum() / (topo.size * rates.shape[0]):.4f}, "
        f"active neurons {(rec.counts > 0).sum()}/{topo.size}"
    )

print()
print("pairwise correlation of the per-neuron count vectors:")
counts = [rec.counts.astype(float) for rec in records]
for i in range(3):
    for j in range(i + 1, 3):
        c = np.corrcoef(counts[i], counts[j])[0, 1]
        print(f"  member {i} (d={members[i][0].law.d}) vs member {j} "
              f"(d={members[j][0].law.d}): r = {c:.3f}")
print()
print("Members run fully independently: the ensemble state is just the")
print("concatenation of their count vectors, and a one-member ensemble with")
print("d = 0 is exactly the plain single-reservoir model.")
