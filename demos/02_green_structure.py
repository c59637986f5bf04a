"""Green's relations on both reducts, with egg-box diagrams.

The same 29-element carrier supports two very different semigroups: the
additive reduct splits into 10 D-classes while the multiplicative reduct
has exactly 3, one per nonzero shape family.
"""

from ans import closure, eggbox, generators, green

ns = closure.additive_closure(generators.enumerate_aff(2))

for label in ("additive", "multiplicative"):
    sg = ns.reduct(label)
    gs = green.green_brute(sg)
    print(f"{label} reduct:")
    for rel in green.RELATIONS:
        sizes = tuple(sorted(len(c) for c in gs.classes[rel]))
        print(f"  {rel}-classes: {len(sizes)}  sizes {sizes}")
    print(f"  idempotents {sum(gs.idempotent)}, regular {sum(gs.regular)}")
    print()

# The egg-box diagram draws each D-class as an R-by-L grid of H-cells,
# starring the idempotents.
eb = eggbox.build_eggbox(ns, "multiplicative")
print(eggbox.eggbox_text(eb))

# J-order covers between D-classes (upper covers lower).
for upper, lower in eb.covers:
    print(f"D-class {eb.boxes[upper].index} covers D-class {eb.boxes[lower].index}")

# The same diagram is available as GraphViz source.
dot = eggbox.eggbox_dot(eb)
print(f"\nDOT source: {len(dot.splitlines())} lines, starts with "
      f"{dot.splitlines()[0]!r}")
