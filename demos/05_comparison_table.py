#!/usr/bin/env python3
"""The four-case comparison of direct vs length-detour superposition.

Two periodic flows, four variations of period and packet length.  Each row
holds the aggregate's rate/burst model from both routes, computed through
the superposition operators with the period as the unit of time, and shows
it as the inter-arrival lower bound ``coeff * (n - offset)+`` with
``coeff = 1/lambda`` periods and ``offset = nu``.  The operators are
homogeneous in the period, so the rows hold for any period.

The pattern to notice: the direct route always keeps offset 1 and never
needs length information; the detour needs lengths, loses one packet of
offset even in the friendliest case, and degrades further when packet
lengths diverge (case 4), where its rate bound worsens too.
"""

from maxplus_tc import render_table1_text, reproduce_table1

rows = reproduce_table1()
print(render_table1_text(rows))

print("case inputs:")
print("  1: periods (t, t),  no length info")
print("  2: periods (t, t),  lengths (l, l)")
print("  3: periods (t, 2t), lengths (l, l)")
print("  4: periods (t, 2t), lengths (l, 2l)  <- equal average bit rates")

# Case 4 in plain numbers, period 10: the direct bound allows a burst of 1
# extra packet; the detour charges 3.
direct, detour = rows[3].direct, rows[3].indirect
print(
    f"case 4 at period 10: direct {10 / direct.lam}*(n-{direct.nu})+, "
    f"detour {10 / detour.lam}*(n-{detour.nu})+"
)
