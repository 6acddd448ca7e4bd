#!/usr/bin/env python3
"""Moving between the packet-rate envelope and the window-budget TSpec.

The two families bound the same flows from different angles, and each maps
into the other: a rate/burst envelope yields a whole family of valid
window budgets (one per window multiple, in two boundary flavors), and a
window budget yields a rate/burst envelope.  The mappings are sound but not
inverse to each other; the round trip inflates the rate by burst + 1.
"""

from fractions import Fraction as F

from maxplus_tc import (
    LambdaNuModel,
    MaxPlusCurve,
    TSpecModel,
    WindowMode,
    check_tspec,
    curve_to_lambda_nu,
    gen_extremal_lambda_nu,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
)

envelope = LambdaNuModel(lam=F(1, 2), nu=F(4))
print("envelope: rate", envelope.lam, "burst", envelope.nu)

# Closed windows keep the window boundary inside and pay one extra packet;
# open windows shave the boundary and save it.
for j in (1, 2, 3):
    a = map_lambda_nu_to_tspec(envelope, WindowMode.CLOSED, j)
    b = map_lambda_nu_to_tspec(envelope, WindowMode.OPEN, j)
    print(
        f"  j={j}: closed {a.k_max} packets per {a.tau} ticks | "
        f"open {b.k_max} packets per <{b.tau} ticks"
    )

# Soundness in action: the envelope's own worst-case trace respects every
# mapped budget.
worst = gen_extremal_lambda_nu(envelope, 40)
ok = all(
    check_tspec(worst, map_lambda_nu_to_tspec(envelope, mode, j)).conforms
    for j in range(1, 6)
    for mode in WindowMode
)
print("extremal trace passes all mapped budgets:", ok)

# The reverse direction: K packets per tau ticks ensures rate K/tau with
# burst K - 1.
tspec = TSpecModel(tau=F(10), k_max=5)
back = map_tspec_to_lambda_nu(tspec)
print("\nwindow budget", tspec.k_max, "per", tspec.tau, "->", "rate", back.lam, "burst", back.nu)

# Round-tripping does not return where we started: through the tight
# mapping (open, j=1) the rate comes back multiplied by burst + 1.
start = LambdaNuModel(lam=F(1, 10), nu=F(3))
roundtrip = map_tspec_to_lambda_nu(map_lambda_nu_to_tspec(start, WindowMode.OPEN, 1))
print("\nround trip:", start.lam, "->", roundtrip.lam, "=", f"(nu+1) = {start.nu + 1}x")

# General curves reduce to the envelope family too: the tightest rate/burst
# pair dominated by the curve on its horizon.
curve = MaxPlusCurve(tuple(F(max(n - 2, 0)) for n in range(11)))
reduced = curve_to_lambda_nu(curve)
print("\ncurve (n-2)+ on horizon 10 reduces to rate", reduced.lam, "burst", reduced.nu)
print(
    "envelope stays below the curve:",
    all(reduced.min_spacing(d) <= curve.values[d] for d in range(11)),
)
