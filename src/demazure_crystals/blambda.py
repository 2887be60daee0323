"""Highest-weight crystals realized inside the infinity crystal.

An element of the crystal of dominant highest weight lam is a pair
(base, lam) where base is an infinity-crystal element that satisfies the
realization's lambda_forms, Nakashima's inequalities L . coords <= <lam, h_i>
(equivalent to eps_star(i, base) <= <lam, h_i> for every color): a few
integer dot products.  A block that is not a reduced word of w0, or whose
forms leave positions 1..len(block), makes the constructor raise
ValueError.  The highest element is (highest, lam); raising acts on the
base, lowering acts on the base and is cut off to zero at the membership
boundary.  Statistics come from tensoring with the
weight-shift crystal at lam, whose -inf statistics leave eps untouched and
shift phi and wt by lam.

The crystal graph is memoized per crystal: each lowering or raising step is
computed once, membership is tested once per edge, and every later query
of the same edge is a dict read.

string_index(i) reads the i-strings off that graph once per color (heads
are the elements that are no f_i target), checks normality once per string
and places every element on its string; strings(i) is read from it.

Membership is not assumed correct: the dimension and character oracles in
the test suite validate it for every weight in the verification grid, and
the tests compare it with the eps_star bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .cartan import Weight, w_add
from .binf import BInfElement, BInfRealization, b_inf
from .charring import WeightPolynomial
from .core import FormalSum


@dataclass(frozen=True, slots=True)
class BLambdaElement:
    """Equal when base coordinates and lam agree; hashed by the coordinates."""

    base: BInfElement
    lam: Weight

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            self.base.coords == other.base.coords and self.lam == other.lam
        )

    def __hash__(self) -> int:
        return hash(self.base.coords)

    @property
    def depth(self) -> int:
        return self.base.depth

    def __repr__(self) -> str:
        return f"BLam({self.base.coords}; {self.lam})"


@dataclass(frozen=True, slots=True)
class IString:
    """Maximal chain of one color: head, f head, ..., with e(head) = 0."""

    color: int
    members: tuple[BLambdaElement, ...]

    @property
    def head(self) -> BLambdaElement:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


class BLambdaCrystal:
    def __init__(self, realization: BInfRealization, lam: Weight):
        lam = tuple(lam)
        if len(lam) != realization.cartan.rank:
            raise ValueError(f"lambda must have {realization.cartan.rank} coordinates")
        if not realization.cartan.is_dominant(lam):
            raise ValueError(f"lambda {lam} is not dominant")
        self.realization = realization
        self.cartan = realization.cartan
        self.lam = lam
        self.highest = BLambdaElement(realization.highest, lam)
        # (lam_i, L): a base is a member iff L . coords <= lam_i for every pair
        self._bounds = tuple((lam[i - 1], form) for i, form in realization.lambda_forms)
        self._generated: frozenset[BLambdaElement] | None = None
        # i -> (strings, place), filled by string_index
        self._string_index: dict[int, tuple] = {}
        # (i, base coords) -> result of f / e, None included
        self._f_memo: dict[tuple[int, tuple[int, ...]], BLambdaElement | None] = {}
        self._e_memo: dict[tuple[int, tuple[int, ...]], BLambdaElement | None] = {}
        # word -> DemazureSet, filled by demazure.demazure_blambda
        self._demazure_cache: dict = {}

    def contains_base(self, base: BInfElement) -> bool:
        coords = base.coords
        for bound, form in self._bounds:
            if sum(map(mul, form, coords)) > bound:
                return False
        return True

    def _base_of(self, x: BLambdaElement) -> BInfElement:
        if x.lam != self.lam:
            raise ValueError(f"{x!r} is not an element of {self!r}")
        return x.base

    def f(self, i: int, x: BLambdaElement) -> BLambdaElement | None:
        key = (i, self._base_of(x).coords)
        if key in self._f_memo:
            return self._f_memo[key]
        nb = self.realization.f(i, x.base)
        out = BLambdaElement(nb, self.lam) if self.contains_base(nb) else None
        self._f_memo[key] = out
        return out

    def e(self, i: int, x: BLambdaElement) -> BLambdaElement | None:
        key = (i, self._base_of(x).coords)
        if key in self._e_memo:
            return self._e_memo[key]
        nb = self.realization.e(i, x.base)
        if nb is None:
            out = None
        elif not self.contains_base(nb):
            raise RuntimeError("raising left the membership set; realization bug")
        else:
            out = BLambdaElement(nb, self.lam)
        self._e_memo[key] = out
        return out

    def eps(self, i: int, x: BLambdaElement) -> int:
        return self.realization.eps(i, self._base_of(x))

    def phi(self, i: int, x: BLambdaElement) -> int:
        return self.realization.phi(i, self._base_of(x)) + self.lam[i - 1]

    def wt(self, x: BLambdaElement) -> Weight:
        return w_add(self.lam, self.realization.wt(self._base_of(x)))

    def generate(self) -> frozenset[BLambdaElement]:
        """Closure of the highest element under lowering; finite in finite type."""
        if self._generated is None:
            out = {self.highest}
            frontier = [self.highest]
            while frontier:
                fresh = []
                for x in frontier:
                    for i in self.cartan.colors:
                        y = self.f(i, x)
                        if y is not None and y not in out:
                            out.add(y)
                            fresh.append(y)
                frontier = fresh
            self._generated = frozenset(out)
        return self._generated

    def string_index(self, i: int) -> tuple[tuple[IString, ...], dict]:
        """(strings, place): the i-strings, heads in sort_key order, and the
        (string number, position) of every element.  Built once from the
        memoized graph; normality is checked once per string."""
        if i not in self._string_index:
            if i not in self.cartan.colors:
                raise ValueError(f"color {i} outside the index set")
            # generate() stored f_i of every element
            lower = {x: self._f_memo[(i, x.base.coords)] for x in self.generate()}
            strings, place = [], {}
            for n, head in enumerate(sorted(lower.keys() - lower.values(), key=self.sort_key)):
                chain, x = [], head
                while x is not None:
                    if x in place:
                        raise RuntimeError("i-strings failed to partition the crystal")
                    place[x] = (n, len(chain))
                    chain.append(x)
                    x = lower[x]
                pairing = self.wt(head)[i - 1]
                if self.eps(i, head) != 0 or pairing != len(chain) - 1:
                    raise RuntimeError(
                        f"normality violated: color {i} string of length {len(chain) - 1} "
                        f"at {head!r}, pairing {pairing}"
                    )
                strings.append(IString(i, tuple(chain)))
            if len(place) != len(lower):
                raise RuntimeError("i-strings failed to partition the crystal")
            self._string_index[i] = (tuple(strings), place)
        return self._string_index[i]

    def strings(self, i: int) -> tuple[IString, ...]:
        """Partition into i-strings; heads are the elements killed by raising."""
        return self.string_index(i)[0]

    def lowest(self) -> BLambdaElement:
        """The unique element killed by every lowering operator."""
        candidates = [
            x
            for x in self.generate()
            if all(self.f(i, x) is None for i in self.cartan.colors)
        ]
        if len(candidates) != 1:
            raise RuntimeError(f"expected one lowest element, found {len(candidates)}")
        return candidates[0]

    def peel(self, x: BLambdaElement) -> tuple[int, ...]:
        # raising agrees with the ambient realization, so the peel word does too
        return self.realization.peel(x.base)

    def sort_key(self, x: BLambdaElement):
        return (x.depth, self.peel(x), x.base.coords)

    def __repr__(self) -> str:
        return f"BLambdaCrystal({self.cartan.type_label}, lam={self.lam})"


@lru_cache(maxsize=None)
def b_lambda(type_label: str, lam: tuple[int, ...]) -> BLambdaCrystal:
    """Shared crystal instance over the type's main realization."""
    return BLambdaCrystal(b_inf(type_label), tuple(lam))


def clear_caches() -> None:
    """Drop the shared b_lambda and b_inf instances, and with them every
    per-crystal memo and per-realization cache they hold (operator, peel
    and star caches included)."""
    b_lambda.cache_clear()
    b_inf.cache_clear()


def char_map(crystal: BLambdaCrystal, x) -> WeightPolynomial:
    """Linear extension of element -> e^{wt(element)}."""
    if isinstance(x, BLambdaElement):
        x = FormalSum.basis(x)
    coeffs: dict[Weight, int] = {}
    for element, coeff in x.items():
        mu = crystal.wt(element)
        coeffs[mu] = coeffs.get(mu, 0) + coeff
    return WeightPolynomial(coeffs)
