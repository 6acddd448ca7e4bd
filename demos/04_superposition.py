#!/usr/bin/env python3
"""Aggregating flows and bounding the aggregate.

Merging flows at a multiplexing point is trivial for traces (sort the
arrivals) but not for envelopes: the aggregate's arrival function is an
infimum over all ways to interleave the components, which resists direct
manipulation.  The superposition operators sidestep that: they combine the
component envelopes into one the merged trace provably satisfies.
"""

from fractions import Fraction as F

from maxplus_tc import (
    LambdaNuModel,
    aggregate_eq1,
    check_lambda_nu,
    fit_lambda_nu,
    gen_extremal_lambda_nu,
    gen_periodic,
    merge_traces,
    superpose_indirect,
    superpose_lambda_nu,
)

# Merge two periodic flows and one bursty flow.
flows = [
    gen_periodic(10, 0, 5),
    gen_periodic(10, 3, 5),
    gen_extremal_lambda_nu(LambdaNuModel(F(1, 5), F(2)), 5),
]
merged = merge_traces(flows)
print("merged ticks:", merged.arrivals)

# The composition formula recomputes each aggregate arrival from scratch by
# trying every split of n packets among the flows; it must agree with the
# sorted merge everywhere.
agrees = all(
    aggregate_eq1(flows, n) == merged.arrival(n) for n in range(len(merged) + 1)
)
print("composition formula agrees with merge at every index:", agrees)

# Direct superposition: rates add, bursts add plus one per extra flow.
models = [
    LambdaNuModel(F(1, 10), F(0)),
    LambdaNuModel(F(1, 10), F(0)),
    LambdaNuModel(F(1, 5), F(2)),
]
aggregate = superpose_lambda_nu(models)
print("\naggregate envelope: rate", aggregate.lam, "burst", aggregate.nu)
print("merged trace conforms:", check_lambda_nu(merged, aggregate).conforms)

# The "+ (flows - 1)" in the burst term is not slack: two aligned periodic
# flows already force it.
twin = gen_periodic(10, 0, 50)
aligned = merge_traces([twin, twin])
fit = fit_lambda_nu(aligned, lam=F(2, 10))
print("\naligned twin merge, fitted burst at the summed rate:", fit.model.nu)

# The length-based detour derives the same kind of bound through the bit
# domain; it needs packet-length information and is never tighter.
detour = superpose_indirect(models, max_lengths=(F(1), F(1), F(2)), min_length=F(1))
print("\nlength-detour envelope: rate", detour.lam, "burst", detour.nu)
print(
    "direct is the better claim: rate",
    f"{aggregate.lam} <= {detour.lam},",
    "burst",
    f"{aggregate.nu} < {detour.nu}",
)
