"""Known answers, computed from the generated inputs alone.

Nothing here calls qgroupoid: each expected verdict follows from the
mathematics of the instance, so a verdict the program gets wrong cannot
also move the answer it is checked against.
"""

from fractions import Fraction
from itertools import combinations


def squarefree_kernel(n):
    """The square-free m with n = g*g*m."""
    m, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            m *= d
        d += 1
    return m * n


def arrow_label(x, y):
    return "(%d, %d)" % (x, y)


def function_delta_plus(points, mu):
    """Modular element of functions on the pair groupoid with weight mu on
    the points: mu(y)/mu(x) on the arrow (x, y) (target x, source y)."""
    w = dict(zip(points, mu))
    return {
        arrow_label(x, y): Fraction(w[y], w[x]) for x in points for y in points
    }


def convolution_counital(mu):
    """The convolution counits evaluate an arrow at its target and its
    source; on a connected pair groupoid mu is counital iff constant."""
    return len(set(mu)) == 1


def missing_roots(weights, supplied):
    """Square-free kernels of the ratios mu(t)/mu(s) outside the field
    Q(i)[sqrt(d) for d in supplied]."""
    needed = {
        squarefree_kernel(a * b) for a in weights for b in weights
    } - {1}
    field = {1}
    for r in range(1, len(supplied) + 1):
        for combo in combinations(supplied, r):
            prod = 1
            for d in combo:
                prod *= d
            field.add(squarefree_kernel(prod))
    return sorted(needed - field)
