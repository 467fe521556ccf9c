"""The Gelfand pair (R_n, S_n), checked on the rank classes of R_n.

Let p = (1/n!) sum of the permutations of 1..n.  The orbits of S_n x S_n on
R_n, acting by r -> s r t, are the rank classes D_0, ..., D_n, where D_k holds
the elements defined on k points (Solomon, "Representations of the rook
monoid", J. Algebra 256, 2002).  So the sandwich p r p depends only on the
rank k of r: it is P_k = (1/|D_k|) sum of D_k, and the P_k span p C[R_n] p.
For a of rank j and b of rank k, since p p = p,

    P_j P_k = p a p b p = (1/|D_j|) sum over x in D_j of P_rank(x b),

so every structure constant is a count of the ranks of products.  P_j and
P_k commute exactly when, for every r, counts_ab[r] |D_k| == counts_ba[r] |D_j|,
where counts_ab[r] is the number of x in D_j with rank(x b) = r and
counts_ba[r] the number of y in D_k with rank(y a) = r.

>>> report = check_gelfand_pair(2)
>>> report.basis, report.distinct_products, report.checked, report.ok
(7, 3, 3, True)
"""

from __future__ import annotations

import itertools
from collections import Counter

from .elements import PartialBijection, gather, padded_rn
from .errors import CheckReport, tally


def check_gelfand_pair(n: int) -> CheckReport:
    """Verify that the sandwiches p a p commute pairwise in C[R_n], exactly.

    Lists R_n once through :func:`padded_rn`, whose guard bounds n, and
    compares the n + 1 sandwiches P_k pairwise by the rank counts above.
    Each P_k is represented by the first rank-k element of the listing.
    """
    by_rank: dict[int, list[tuple]] = {}
    for images in padded_rn(n):
        # The leading None is what gather's index 0 reads for a point outside b's domain.
        by_rank.setdefault(n - images.count(None), []).append((None,) + images)
    classes = [(members, gather([y or 0 for y in members[0][1:]])) for members in by_rank.values()]

    def product_ranks(members, times_b) -> Counter:
        """How many x in ``members`` give each rank of x b, keyed by n - rank."""
        return Counter(product.count(None) for product in map(times_b, members))

    def failure(pair) -> str | None:
        (xs, times_a), (ys, times_b) = pair
        ab, ba = product_ranks(xs, times_b), product_ranks(ys, times_a)
        if {r: c * len(ys) for r, c in ab.items()} == {r: c * len(xs) for r, c in ba.items()}:
            return None
        a, b = (PartialBijection(m[0][1:]) for m in (xs, ys))
        return f"p {a.literal()} p vs p {b.literal()} p"

    return tally("gelfand", n, map(failure, itertools.combinations(classes, 2)),
                 basis=sum(len(members) for members, _ in classes),
                 distinct_products=len(classes))
