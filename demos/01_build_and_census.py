"""Build the affine near-semiring over B_n and census its elements.

Starting from the affine generator set, the additive closure is computed by
a worklist sweep, every element is classified into one of the four canonical
shapes, and the measured counts are compared against the closed forms.
"""

from ans import closure, formulas, generators, maps

SHAPES = ("Zero", "Constant", "Singleton", "NSupport")  # by the shape code of `maps.fields`

for n in (1, 2, 3, 4):
    gens = generators.enumerate_aff(n)
    ns = closure.additive_closure(gens)
    ct = formulas.counts(n)
    print(f"n={n}: |Aff| = {len(gens)}, closure has {len(ns)} elements "
          f"(closed form {ct.a_plus_total})")

    hist = closure.support_histogram(ns)
    print(f"  support histogram {dict(sorted(hist.items()))}")
    print(f"  expected          {formulas.support_histogram_expected(n)}")

    by_shape = {}
    for code in maps.fields(n)[:len(ns), 0]:  # index i is canonical rank i
        shape = SHAPES[code]
        by_shape[shape] = by_shape.get(shape, 0) + 1
    print(f"  shapes: {dict(sorted(by_shape.items()))}")

# The n=2 closure is small enough to show in full.
ns = closure.additive_closure(generators.enumerate_aff(2))
print("\nall 29 elements of the n=2 closure, in canonical order:")
print("  " + ", ".join(maps.tokens(range(len(ns)), 2)))

# Axioms are rechecked from the finished Cayley tables.
rep = closure.verify_near_semiring(ns)
print("\naxiom checks on the n=2 tables:")
for check in rep.checks:
    print(f"  {check}")
