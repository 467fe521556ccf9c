"""Finite spherical models and the two-scaling limit comparison.

Run:  python demos/05_spherical_limits.py
"""

from fractions import Fraction

from rookchar import (
    SphericalModel,
    idempotent,
    infinite_spherical_value,
    spherical_coeff,
    spherical_coeff_closed_form,
    spherical_limit_check,
)

# Finite model: n slots, l of them marked; coefficients of idempotents at the
# spherical vector have an exact falling-factorial form.
model = SphericalModel(4, 2)
for b in (1, 2, 3):
    eps = idempotent(range(1, b + 1))
    print(
        f"n=4 l=2  e killed on {b} points:",
        spherical_coeff(model, eps),
        "| closed form:",
        spherical_coeff_closed_form(4, 2, b),
    )

# Infinite model on u-stabilized tensors: each killed point contributes the
# squared overlap kappa^2.
kappa = Fraction(1, 2)
print("\ninfinite value, one kill:", infinite_spherical_value(kappa, idempotent([1])))
print("infinite value, two kills:", infinite_spherical_value(kappa, idempotent([1, 2])))

# Which subset growth rate reproduces the infinite model?  Tabulate both
# l_n/n -> kappa and l_n/n -> kappa^2; the squared rate converges.
report = spherical_limit_check(kappa, idempotent([1, 2]), [25, 50, 100, 200])
print(f"\ninfinite value: {report.infinite_value}  (killed = {report.killed})")
print(f"{'n':>5s} {'l=kn':>6s} {'coeff':>10s} {'err':>10s} {'l=k2n':>6s} {'coeff':>10s} {'err':>10s}")
for row in map(dict, report.rows):
    print(
        f"{row['n']:5d} {row['l_kappa']:6d} {row['coeff_kappa']:10.6f} "
        f"{row['error_kappa']:10.6f} {row['l_kappa_squared']:6d} "
        f"{row['coeff_kappa_squared']:10.6f} {row['error_kappa_squared']:10.6f}"
    )
print("converging scaling:", report.converging_scaling)
