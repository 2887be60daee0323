"""Exact group ring of the weight lattice and crystal-free character oracles.

Everything here is pure weight arithmetic over the rationals: the algebraic
Demazure operator acts monomial by monomial, dimensions come from the
product formula over positive roots, and full characters from the
multiplicity recursion on dominant weights followed by Weyl-orbit
expansion.  Nothing in this module touches crystal code, so agreement with
the crystal side is evidence rather than circularity; the only thing shared
with `core` is the sparse integer container that WeightPolynomial extends.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import (
    CartanData,
    Weight,
    enumerate_weyl,
    reflect,
    w_add,
    w_sub,
)
from .core import FormalSum


class WeightPolynomial(FormalSum):
    """Finitely supported integer function on the weight lattice.

    Multiplication is the group-ring convolution e^mu * e^nu = e^{mu+nu}.
    """

    __slots__ = ()

    @classmethod
    def monomial(cls, mu: Weight, coeff: int = 1) -> WeightPolynomial:
        return cls({tuple(mu): coeff})

    def coefficient(self, mu: Weight) -> int:
        return self._coeffs.get(tuple(mu), 0)

    def total(self) -> int:
        return sum(self._coeffs.values())

    def map_exponents(self, fn) -> WeightPolynomial:
        out: dict[Weight, int] = {}
        for mu, c in self._coeffs.items():
            nu = fn(mu)
            out[nu] = out.get(nu, 0) + c
        return WeightPolynomial(out)

    def __mul__(self, other: WeightPolynomial) -> WeightPolynomial:
        out: dict[Weight, int] = {}
        for mu, c in self._coeffs.items():
            for nu, d in other._coeffs.items():
                key = w_add(mu, nu)
                acc = out.get(key, 0) + c * d
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return self._like(out)

    def __repr__(self) -> str:
        return f"WeightPolynomial({render_polynomial(self)})"


def render_weight(mu: Weight) -> str:
    return "(" + ",".join(str(x) for x in mu) + ")"


def render_polynomial(poly: WeightPolynomial) -> str:
    if not poly:
        return "0"
    parts = []
    for mu in sorted(poly.support(), reverse=True):
        c = poly.coefficient(mu)
        term = f"e^{{{render_weight(mu)}}}" if abs(c) == 1 else f"{abs(c)}*e^{{{render_weight(mu)}}}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def algebraic_demazure(data: CartanData, i: int, f: WeightPolynomial) -> WeightPolynomial:
    """Demazure operator on the group ring, monomial by monomial.

    For m = <mu, h_i>: m >= 0 contributes sum_{0<=k<=m} e^{mu - k alpha_i},
    m = -1 contributes nothing, and m < -1 contributes the negated sum
    -sum_{1<=k<=-m-1} e^{mu + k alpha_i}.  Equivalent to the divided
    difference (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}).
    """
    alpha = data.alpha(i)
    out: dict[Weight, int] = {}
    for mu, coeff in f.items():
        m = mu[i - 1]
        if m >= 0:
            nu = mu
            for _ in range(m + 1):
                out[nu] = out.get(nu, 0) + coeff
                nu = w_sub(nu, alpha)
        elif m < -1:
            nu = mu
            for _ in range(-m - 1):
                nu = w_add(nu, alpha)
                out[nu] = out.get(nu, 0) - coeff
    return WeightPolynomial(out)


def apply_demazure_word(data: CartanData, word, f: WeightPolynomial) -> WeightPolynomial:
    """Compose algebraic Demazure operators, first letter applied first."""
    for i in word:
        f = algebraic_demazure(data, i, f)
    return f


def weyl_dim(data: CartanData, lam: Weight) -> int:
    """Dimension by the product formula over positive roots, exactly."""
    lam = tuple(lam)
    if not data.is_dominant(lam):
        raise ValueError(f"lambda {lam} is not dominant")
    top = w_add(lam, data.rho)
    value = Fraction(1)
    for root in data.positive_roots:
        value *= data.coroot_pairing(top, root) / data.coroot_pairing(data.rho, root)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral dimension {value}; root data inconsistent")
    return int(value)


def _dominate(data: CartanData, mu: Weight) -> Weight:
    """The dominant representative of the Weyl orbit of mu."""
    for _ in range(10_000):
        for i in data.colors:
            if mu[i - 1] < 0:
                mu = reflect(data, i, mu)
                break
        else:
            return mu
    raise RuntimeError("dominance loop failed to terminate")


def freudenthal_character(data: CartanData, lam: Weight) -> WeightPolynomial:
    """Full character: multiplicity recursion on dominant weights, then orbits."""
    lam = tuple(lam)
    if not data.is_dominant(lam):
        raise ValueError(f"lambda {lam} is not dominant")
    group = enumerate_weyl(data)
    lowest = group.longest.apply(lam)
    span = data.root_coords(w_sub(lam, lowest))
    bounds = []
    for x in span:
        if x.denominator != 1 or x < 0:
            raise ArithmeticError("weight span is not a nonnegative root combination")
        bounds.append(int(x))

    candidates = []
    def scan(j, partial):
        if j == data.rank:
            mu = tuple(
                lam[r] - sum(data.matrix[r][c] * partial[c] for c in range(data.rank))
                for r in range(data.rank)
            )
            if data.is_dominant(mu):
                candidates.append((sum(partial), tuple(partial), mu))
            return
        for v in range(bounds[j] + 1):
            scan(j + 1, partial + [v])
    scan(0, [])
    candidates.sort()

    rho = data.rho
    top_norm = data.inner(w_add(lam, rho), w_add(lam, rho))
    mult: dict[Weight, int] = {}
    for height, rc, mu in candidates:
        if height == 0:
            mult[mu] = 1
            continue
        total = Fraction(0)
        for root in data.positive_roots:
            alpha = data.fund_coords(root)
            k = 1
            while all(rc[j] - k * root[j] >= 0 for j in range(data.rank)):
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                m_nu = mult.get(_dominate(data, nu), 0)
                if m_nu:
                    total += m_nu * data.inner(nu, alpha)
                k += 1
        denom = top_norm - data.inner(w_add(mu, rho), w_add(mu, rho))
        value = 2 * total / denom
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(f"non-integral multiplicity {value} at {mu}")
        mult[mu] = int(value)

    coeffs: dict[Weight, int] = {}
    for mu, m in mult.items():
        if m == 0:
            continue
        for w in group:
            coeffs[w.apply(mu)] = m
    poly = WeightPolynomial(coeffs)
    if poly.total() != weyl_dim(data, lam):
        raise ArithmeticError("character mass disagrees with the dimension formula")
    return poly
