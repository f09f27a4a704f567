"""Exact characteristic polynomials of tree Laplacians.

The bottom-up vertex recurrence assigns each vertex the rational function
a(v) = x - d(v) - sum_c 1/a(c) over its children; the product of all a(v)
is det(xI - L).  It is implemented pole-free: writing a(v) = N_v / D_v with
D_v = prod_c N_c, the product telescopes to N_root, so no rational-function
division is ever performed and eigenvalue arguments cause no zero
denominators.

Coefficients are arbitrary-precision integers throughout (the Laplacian
characteristic polynomial of a forest is monic and integral).  Closed forms
for the three special diameter-4 families are provided alongside.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BadParam
from .tree import Tree


class Poly:
    """Dense univariate polynomial, coefficients ascending by degree.

    Immutable; trailing zeros are stripped (the zero polynomial has no
    coefficients and degree -1).  Coefficients may be ints or Fractions;
    everything produced by char_poly is integer.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise BadParam("negative polynomial power")
        result = Poly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


X = Poly((0, 1))
ONE = Poly((1,))


def char_poly(tree: Tree) -> Poly:
    """det(xI - L(T)) exactly: monic, degree n, constant term 0.

    One post-order pass from a centroid builds N_v and D_v for every vertex
    (a lone vertex has no children, so N = x) and returns N_root.
    """
    root = tree.centroids()[0]
    order, _, kids = tree.rooted(root)
    N: list[Poly | None] = [None] * tree.n
    D: list[Poly | None] = [None] * tree.n
    for v in order:
        nprod = ONE
        s = Poly()
        for c in kids[v]:
            s = s * N[c] + D[c] * nprod
            nprod = nprod * N[c]
        N[v] = Poly((-tree.degrees[v], 1)) * nprod - s
        D[v] = nprod
    return N[root]


# ---- closed forms for the diameter-4 families ------------------------------


def closed_form_t4(a: int, b: int) -> Poly:
    """x (x^2 - 3x + 1)^(a+b-1) (x^2 - (a+b+3)x + 2a+2b+1), expanded."""
    if a + b < 2:
        raise BadParam(f"closed_form_t4 needs a + b >= 2, got ({a}, {b})")
    k = a + b
    return X * Poly((1, -3, 1)) ** (k - 1) * Poly((2 * k + 1, -(k + 3), 1))


def tprime_quartic(r: int, s1: int) -> Poly:
    if r < 2 or s1 < 2:
        raise BadParam(f"tprime_quartic needs r >= 2, s1 >= 2, got ({r}, {s1})")
    return Poly(
        (
            s1 + 2 * r,
            -(2 * s1 * r + 5 * r + 2 * s1 + 4),
            s1 * r + 4 * r + 3 * s1 + 8,
            -(r + s1 + 5),
            1,
        )
    )


def closed_form_tprime(r: int, s1: int) -> Poly:
    """x (x-1)^(s1-1) (x^2 - 3x + 1)^(r-2) * quartic(r, s1), expanded."""
    return X * Poly((-1, 1)) ** (s1 - 1) * Poly((1, -3, 1)) ** (r - 2) * tprime_quartic(r, s1)


def tdprime_sextic(r: int, s1: int, s2: int) -> Poly:
    """The degree-6 factor of the T'' characteristic polynomial.

    All signs alternate (every root is real and positive); in particular the
    linear coefficient is -a4, with a4 = 2rs1 + 2s1s2 + 2rs2 + 3s1 + 3s2 + 9r + 1.
    """
    if r < 3 or s1 < 2 or s2 < 2:
        raise BadParam(f"tdprime_sextic needs r >= 3, s1, s2 >= 2, got ({r}, {s1}, {s2})")
    a1 = r * s1 + r * s2 + s1 * s2 + 5 * s1 + 6 * r + 5 * s2 + 19
    a2 = r * s1 * s2 + 4 * r * s1 + 3 * s1 * s2 + 4 * r * s2 + 9 * s1 + 9 * s2 + 14 * r + 24
    a3 = 2 * r * s1 * s2 + 5 * r * s1 + 3 * s1 * s2 + 5 * r * s2 + 7 * s1 + 7 * s2 + 16 * r + 13
    a4 = 2 * r * s1 + 2 * s1 * s2 + 2 * r * s2 + 3 * s1 + 3 * s2 + 9 * r + 1
    return Poly(
        (
            s1 + s2 + 2 * r - 1,
            -a4,
            a3,
            -a2,
            a1,
            -(r + s1 + s2 + 7),
            1,
        )
    )


def closed_form_tdprime(r: int, s1: int, s2: int) -> Poly:
    """x (x-1)^(s1+s2-2) (x^2 - 3x + 1)^(r-3) * sextic(r, s1, s2), expanded."""
    return (
        X
        * Poly((-1, 1)) ** (s1 + s2 - 2)
        * Poly((1, -3, 1)) ** (r - 3)
        * tdprime_sextic(r, s1, s2)
    )
