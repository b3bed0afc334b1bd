"""Tour of exact arithmetic in the nine class-number-one rings.

Shows prime splitting, split primes from lattice reduction, factorization,
and the canonical-associate convention used everywhere else.
"""

from iqtower import (CLASS_NUMBER_ONE_DS, OkElement, canonical_associate,
                     factor, field, gcd_ok, primes_above, split_type)

print("The nine imaginary quadratic fields of class number one:")
for d in CLASS_NUMBER_ONE_DS:
    tag = field(d)
    print(f"  d={d:<4} disc={tag.discriminant:<5} units={tag.num_units} "
          f"omega={'(1+sqrt(-d))/2' if tag.omega_is_half else 'sqrt(-d)'}")

print("\nSplitting of small rational primes:")
header = "ell: " + "  ".join(f"d={d}" for d in CLASS_NUMBER_ONE_DS)
print(header)
for ell in (2, 3, 5, 7, 11, 13):
    row = "  ".join(f"{split_type(field(d), ell)[:2]:>4}" for d in CLASS_NUMBER_ONE_DS)
    print(f"{ell:>3}: {row}")

print("\nSplit primes: the shortest vector of the lattice (l, omega - s), s a root mod l:")
for d, ell in ((1, 5), (43, 59), (163, 179), (7, 2)):
    pair = primes_above(field(d), ell)
    print(f"  {ell} in Q(sqrt(-{d})): " + ", ".join(str(p) for p in pair))

print("\nFactorization (unit * prime powers, exact rebuild):")
K3 = field(3)
e = K3.from_int(7) * OkElement(K3, 1, 2) ** 2
f = factor(e)
parts = " * ".join(f"({p})^{k}" if k > 1 else f"({p})" for p, k in f.factors)
print(f"  {e} = {f.unit} * {parts}")
assert f.value() == e

print("\ngcd through factorization (four of the rings are not Euclidean):")
K19 = field(19)
a = K19.from_int(35)
b = OkElement(K19, 1, 1) * K19.from_int(5)
print(f"  gcd({a}, {b}) = {gcd_ok(a, b)}")

print("\nCanonical associates (one representative per unit orbit):")
K1 = field(1)
for coords in ((-2, -1), (-1, 2), (1, -2)):
    e = OkElement(K1, *coords)
    print(f"  {str(e):>12}  ->  {canonical_associate(e)}")
