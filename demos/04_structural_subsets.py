"""Distinguished subsets and their structure.

Four subsets of the closure carry structure of their own: the additively
regular elements K form an inverse semigroup under +, the non-full-support
elements N form an inverse semigroup under composition, the constants are
an isomorphic copy of B_n, and the singleton ideal is isomorphic to a
0-direct union of Brandt semigroups additively and to B_{n^2}
multiplicatively.
"""

from ans import closure, generators, green, maps

n = 2
ns = closure.additive_closure(generators.enumerate_aff(n))

for label in ("additive", "multiplicative"):
    sg = ns.reduct(label)
    print(f"{label} reduct:")
    for name in green.SUBSET_NAMES:
        try:
            rep = green.structural_checks(sg, name)
        except ValueError:
            continue   # K is additive-only, N is multiplicative-only
        flags = []
        for attr in ("closed", "regular", "idempotents_commute",
                     "inverse", "orthodox"):
            if getattr(rep, attr):
                flags.append(attr)
        line = f"  {name:<16} size {rep.size:>3}  {' '.join(flags)}"
        if rep.iso_target:
            line += f"  iso to {rep.iso_target}: {rep.iso_holds}"
        print(line)
    print()

# Eventual regularity: every element has a regular power, and the first
# regular power is 2 exactly on the n-support elements.
sg = ns.reduct("additive")
gs = green.green_brute(sg)
profile = {}
for i, code in enumerate(maps.fields(n)[:, 0]):  # index i is canonical rank i
    shape = ("Zero", "Constant", "Singleton", "NSupport")[code]
    profile.setdefault(shape, set()).add(gs.eventual_index[i])
print("first additively regular power, by shape:")
for shape, indices in sorted(profile.items()):
    print(f"  {shape:<10} {sorted(indices)}")
