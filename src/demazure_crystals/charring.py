"""Exact group ring of the weight lattice and crystal-free character oracles.

Everything here is pure integer weight arithmetic: the algebraic Demazure
operator acts monomial by monomial, dimensions come from the product
formula over positive roots, and full characters from the multiplicity
recursion on dominant weights followed by Weyl-orbit expansion.  Every
inner product is the integer pairing of a weight with a root in root
coordinates, so nothing is solved for and no rational appears.  Nothing in
this module touches crystal code, so agreement with the crystal side is
evidence rather than circularity; the only thing shared with `core` is the
sparse integer container that WeightPolynomial extends.
"""

from __future__ import annotations

from .cartan import CartanData, Weight, reflect, w_add, w_scale, w_sub
from .core import FormalSum


class WeightPolynomial(FormalSum):
    """Finitely supported integer function on the weight lattice."""

    __slots__ = ()

    @classmethod
    def monomial(cls, mu: Weight, coeff: int = 1) -> WeightPolynomial:
        return cls({tuple(mu): coeff})

    def coefficient(self, mu: Weight) -> int:
        return self._coeffs.get(tuple(mu), 0)

    def total(self) -> int:
        return sum(self._coeffs.values())

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
    alpha = data.alpha(data.check_color(i))
    out: dict[Weight, int] = {}
    for mu, coeff in f.items():
        m = data.check_weight(mu)[i - 1]
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
    """Dimension by the product formula over positive roots: the exact
    quotient of prod (lam + rho, alpha) by prod (rho, alpha)."""
    top = w_add(data.check_dominant(lam), data.rho)
    num = den = 1
    for root in data.positive_roots:
        num *= data.root_pairing(top, root)
        den *= data.root_pairing(data.rho, root)
    if num % den:
        raise ArithmeticError(f"non-integral dimension {num}/{den}; root data inconsistent")
    return num // den


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


def _dominant_below(data: CartanData, lam: Weight):
    """(height, root coordinates of lam - mu, mu) for every dominant mu <= lam,
    by height.

    Each is reached from lam through dominant weights, one positive root at
    a time (Stembridge, The partial order of dominant weights, 1998).
    """
    roots = [(root, data.fund_coords(root)) for root in data.positive_roots]
    below = {lam: (0,) * data.rank}
    frontier = [lam]
    while frontier:
        fresh = []
        for mu in frontier:
            for root, alpha in roots:
                nu = w_sub(mu, alpha)
                if nu not in below and data.is_dominant(nu):
                    below[nu] = w_add(below[mu], root)
                    fresh.append(nu)
        frontier = fresh
    return sorted((sum(rc), rc, mu) for mu, rc in below.items())


def freudenthal_character(data: CartanData, lam: Weight) -> WeightPolynomial:
    """Full character: multiplicity recursion on dominant weights, then orbits.

    The recursion's factor (lam + rho, lam + rho) - (mu + rho, mu + rho) is
    the pairing (lam + mu + 2 rho, lam - mu) with the root coordinates of
    lam - mu.
    """
    lam = data.check_dominant(lam)
    lam_2rho = w_add(lam, w_scale(2, data.rho))
    mult: dict[Weight, int] = {}
    for height, rc, mu in _dominant_below(data, lam):
        if height == 0:
            mult[mu] = 1
            continue
        total = 0
        for root in data.positive_roots:
            alpha = data.fund_coords(root)
            k = 1
            while all(rc[j] - k * root[j] >= 0 for j in range(data.rank)):
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                m_nu = mult.get(_dominate(data, nu), 0)
                if m_nu:
                    total += m_nu * data.root_pairing(nu, root)
                k += 1
        denom = data.root_pairing(w_add(lam_2rho, mu), rc)
        value, rest = divmod(2 * total, denom)
        if rest or value < 0:
            raise ArithmeticError(f"non-integral multiplicity {2 * total}/{denom} at {mu}")
        mult[mu] = value

    coeffs: dict[Weight, int] = {}
    for mu, m in mult.items():
        coeffs[mu] = m
        orbit = [mu]
        for nu in orbit:
            for i in data.colors:
                image = reflect(data, i, nu)
                if image not in coeffs:
                    coeffs[image] = m
                    orbit.append(image)
    poly = WeightPolynomial(coeffs)
    if poly.total() != weyl_dim(data, lam):
        raise ArithmeticError("character mass disagrees with the dimension formula")
    return poly
