"""Arithmetic on canonical shapes, and analytic Green tests.

Every element of the closure is a Zero, Constant, Singleton, or NSupport
map, and `maps.fields` reads its shape and fields off its canonical index.
Sums and composites of shapes follow short algebraic rules, which is what
makes the analytic Green relation tests possible.  This script works a few
of those rules concretely and cross-checks the analytic tests against the
brute-force partitions.
"""

from ans import closure, generators, green, maps

n = 2
TOKENS = maps.tokens(range(len(maps.canonical_tables(n))), n)


def table(token):
    """The table of the element spelled `token`: its canonical index's row."""
    return maps.canonical_tables(n)[TOKENS.index(token)]


def show(op, f, g):
    """Print f op g, for op "+" (pointwise sum) or "o" (composite) of the
    elements spelled f and g, ranked by the product kernel that fills the
    Cayley tables."""
    [(_, ranks)] = maps.products([table(f)], [table(g)], op, n)
    print(f"  {f} {op} {g} = {maps.tokens(ranks[0], n)[0]}")


print("sums of shapes:")
show("+", "xi(1,1)", "xi(1,2)")
show("+", "(1,1;[1,2])", "(1,1;[2,1])")  # same column: collapses to a singleton
show("+", "(1,1;[1,2])", "(2,2;[1,2])")  # different columns: annihilates
show("+", "xi(1,1)", "(1,1;[1,2])")      # constant then column map

print("composites of shapes:")
show("o", "(1,1;[1,2])", "(2,2;[1,2])")  # matching column and row chain
show("o", "(1,1;[1,2])", "xi(1,2)")      # constants absorb on the right
show("o", "xi(1,2)", "(2,2;[1,2])")

# The analytic rules compare fields: two elements are R-, L- or D-related
# exactly when their shapes match and they agree on the fields the rule
# names for that shape (a singleton's are its source pair a and its target
# pair (b, c)).  J is D on a finite semigroup, and H is R and L together.
ns = closure.additive_closure(generators.enumerate_aff(n))
a, b = TOKENS.index("<(1,1)->(1,2)>"), TOKENS.index("<(2,2)->(1,2)>")
print(f"\nshape and fields (shape, a, b, c) of {TOKENS[a]} and {TOKENS[b]}: "
      f"{tuple(maps.fields(n)[a].tolist())} and {tuple(maps.fields(n)[b].tolist())}")
analytic = green.analytic_structure(ns.reduct("multiplicative"))
for rel in ("R", "L", "D"):
    related = any(a in c and b in c for c in analytic.classes[rel])
    print(f"  multiplicatively {rel}-related: {related}")

# Full agreement with the brute-force record: every relation's partition,
# and the idempotent, regular and eventual-index flags of every element.
for label in ("additive", "multiplicative"):
    sg = ns.reduct(label)
    gs = green.green_brute(sg)
    analytic = green.analytic_structure(sg)
    same = [rel for rel in green.RELATIONS if analytic.classes[rel] == gs.classes[rel]]
    print(f"\n{label} analytic vs brute force at n={n}: "
          f"{len(same)} of {len(green.RELATIONS)} partitions agree; "
          f"the whole record agrees: {analytic == gs}")
