"""Chores and mixed manna: why padding matters.

Running the eating rule directly on bads can leave a heavy outcome in the
lottery: someone eats two of the three chores and needs to drop two of them
before she stops envying. Padding the instance with zero-valued dummy items
until everyone eats the same number of units removes exactly that outcome.
"""

from fractions import Fraction

from fairlot.core import Instance
from fairlot.properties import check_envy
from fairlot.rps import RpsConfig, _run_engine, rps_bads, rps_mixed

bads = Instance.from_rows([[-1, -2, -3], [-1, -2, -3]])
print("chore costs:", [[str(v) for v in row] for row in bads.values])

raw = _run_engine(bads.prefs, bads.m, RpsConfig(), bads.m)
print("\nunpadded eating lottery:")
heavy = Fraction(0)
for w, part in raw.support:
    ef1 = check_envy(bads, part, "ef1").holds
    ef2 = check_envy(bads, part, "efk", k=2).holds
    print(f"  weight {w}: {[list(b) for b in part.bundles]}  ef1 {ef1}  ef2 {ef2}")
    if not ef1:
        heavy += w
print(f"outcomes needing a two-chore allowance carry weight {heavy}")

padded = rps_bads(bads)
print("\npadded lottery (dummies eaten first, stripped from the output):")
for w, part in padded.support:
    ef1 = check_envy(bads, part, "ef1").holds
    print(f"  weight {w}: {[list(b) for b in part.bundles]}  ef1 {ef1}")

# Mixed manna uses the same padded protocol; the per-outcome guarantee is
# weak EF1: remove one item from your bundle and one from the rival's and
# the envy is gone.
mixed = Instance.from_rows([[2, -1, 1, -2], [-1, 2, -2, 1]])
print("\nmixed values:", [[str(v) for v in row] for row in mixed.values])
lot = rps_mixed(mixed)
for w, part in lot.support:
    print(
        f"  weight {w}: {[list(b) for b in part.bundles]}"
        f"  wef1 {check_envy(mixed, part, 'wef1').holds}"
    )
