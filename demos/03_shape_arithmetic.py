"""Arithmetic on canonical shapes, and analytic Green tests.

Every element of the closure is a Zero, Constant, Singleton, or NSupport
map.  Sums and composites of shapes follow short algebraic rules, which is
what makes the analytic Green relation tests possible.  This script works
a few of those rules concretely and cross-checks the analytic tests
against the brute-force partitions.
"""

from ans import closure, generators, green, maps

n = 2


def show(op, f, g):
    """Print f op g, for op "+" (pointwise sum) or "o" (composite), ranked
    by the product kernel that fills the Cayley tables."""
    [(_, ranks)] = maps.products([f], [g], op, n)
    print(f"  {maps.map_str(f)} {op} {maps.map_str(g)} = {maps.tokens(ranks[0], n)[0]}")


print("sums of shapes:")
const11 = maps.render(maps.Constant((1, 1)), n)
const12 = maps.render(maps.Constant((1, 2)), n)
col1 = maps.render(maps.NSupport(1, 1, (1, 2)), n)
col1_swap = maps.render(maps.NSupport(1, 1, (2, 1)), n)
col2 = maps.render(maps.NSupport(2, 2, (1, 2)), n)
show("+", const11, const12)
show("+", col1, col1_swap)     # same column: collapses to a singleton
show("+", col1, col2)          # different columns: annihilates
show("+", const11, col1)       # constant then column map

print("composites of shapes:")
show("o", col1, col2)          # matching column and row chain
show("o", col1, const12)       # constants absorb on the right
show("o", const12, col2)

# The analytic rules are per-element keys of a canonical form: two elements
# are R-, L- or D-related exactly when those keys agree.  J is D on a finite
# semigroup, and H is R and L together.
a = maps.Singleton((1, 1), (1, 2))
b = maps.Singleton((2, 2), (1, 2))
ka, kb = green.multiplicative_keys(a), green.multiplicative_keys(b)
print("\nanalytic multiplicative keys of "
      f"{maps.canonical_str(a)} and {maps.canonical_str(b)}:")
for rel in ("R", "L", "D"):
    print(f"  {rel}: {ka[rel]} vs {kb[rel]}, related: {ka[rel] == kb[rel]}")

# Full agreement with the brute-force partitions, for every relation.
ns = closure.additive_closure(generators.enumerate_aff(n))
for label in ("additive", "multiplicative"):
    sg = ns.reduct(label)
    gs = green.green_brute(sg)
    analytic = green.analytic_structure(sg)
    same = [rel for rel in green.RELATIONS if analytic[rel] == gs.classes[rel]]
    print(f"\n{label} analytic vs brute force at n={n}: "
          f"{len(same)} of {len(green.RELATIONS)} partitions agree")
