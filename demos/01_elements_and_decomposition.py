"""Element arithmetic and the quasi-cycle decomposition, step by step.

Run:  python demos/01_elements_and_decomposition.py
"""

from rookchar import (
    compose,
    conjugacy_invariant,
    decompose,
    enumerate_rn,
    find_conjugator,
    parse_element,
    rn_size,
)

# Two ways to write the same element: by its image list, or as a product of
# cycles and idempotents (left factor applied last).
r = parse_element("[2,3,_,4,_]")
same = parse_element("(1 2 3)e{3}e{5}")
print("literal:", r.literal(), "| product form parses equal:", r == same)
print("images of 1..6:", [r(x) for x in range(1, 7)])
print("support:", sorted(r.support()))

# The involution is matrix transposition: it inverts the partial map.
print("\nstar:", r.star().literal())
print("r* r is the idempotent on the domain gaps:", compose(r.star(), r).literal())

# Every element factors into disjoint quasi-cycles, plain cycles, and
# one-point idempotents; the product of the parts recovers the element.
d = decompose(r)
print("\ndecomposition:", d.literal())
print("recomposed equal:", d.element() == r)
# The conjugacy invariant is the class key (quasi-cycle sizes, plain cycle
# sizes, trivial count).
print("conjugacy invariant:", conjugacy_invariant(r))

# Invariant equality is exactly conjugacy; the search returns a relabeling.
r2 = parse_element("(4 5 6)e{6}e{1}")
print("\nsame invariant as", r2.literal(), "->", conjugacy_invariant(r2))
s = find_conjugator(r, r2)
print("conjugator s:", s.literal())
print("s r2 s* == r:", compose(compose(s, r2), s.star()) == r)

# Exhaustive enumeration (guarded) follows the closed-form count.
print("\n|R_n| for n = 0..5:", [rn_size(n) for n in range(6)])
print("streamed |R_3|:", sum(1 for _ in enumerate_rn(3)))
