"""Highest-weight crystals realized inside the infinity crystal.

B(lam) is the component of u_inf (x) t_lam (x) c in B(inf) (x) T_lam (x) C
(Kashiwara, Duke Math. J. 71, 1993), and t_lam and c are single elements,
so an element of B(lam) is an infinity-crystal element b.  lam belongs to
the crystal, not to its elements.  Raising acts as in B(inf), and so does
lowering, cut off to zero where phi_i(b) = eps_i(b) + <lam + wt b, h_i> is
0: the B(inf) operators and weights decide membership, and any block that
contains every color will do.  Statistics come from tensoring with t_lam,
whose -inf statistics leave eps untouched and shift phi and wt by lam.

The crystal graph is stored only as its string index.  generate() lowers a
member x along color i only when phi_i(x) > 0: the infinity crystal's phi_i,
one signature pass, plus <lam, h_i>.  It reads the i-strings off each
color's lowering map (heads are the elements that are no f_i target), checks
normality once per string against the infinity crystal's e and wt and places
every element on its string.  f, e, eps and phi read that place, and
strings(i) is read from the index.  Every query, wt included, rejects an
element outside generate() with ValueError, and contains_base is membership
in generate().  Above MAX_ELEMENTS (by weyl_dim) generate() raises
CapacityError at once; past weyl_dim elements, which only a wrong eps or wt
can reach, RuntimeError.

Membership is not assumed correct: the dimension and character oracles in
the test suite validate it for every weight in the verification grid, and
the tests compare it with Kashiwara's bound eps_i(star b) <= <lam, h_i>.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import Weight, cartan_matrix, w_add
from .binf import BInfElement, BInfRealization, CapacityError, b_inf
from .charring import WeightPolynomial, weyl_dim
from .core import FormalSum

MAX_ELEMENTS = 200_000  # under 1 KB each: generate() of G2 (5,5), 46,656 elements, peaks at 57 MB


class BLambdaCrystal:
    def __init__(self, realization: BInfRealization, lam: Weight):
        lam = realization.cartan.check_dominant(lam)
        self.realization = realization
        self.cartan = realization.cartan
        self.lam = lam
        self.highest = realization.highest
        self._generated: frozenset[BInfElement] | None = None
        # i -> (strings, place), built by generate
        self._string_index: dict[int, tuple] = {}
        # word -> frozenset, filled by demazure.demazure_blambda
        self._demazure_cache: dict = {(): frozenset({self.highest})}

    def contains_base(self, base: BInfElement) -> bool:
        return base in self.generate()

    def _locate(self, i: int, x: BInfElement) -> tuple[tuple[BInfElement, ...], int]:
        """(members, k): the i-string through x and the position of x on it."""
        strings, place = self.string_index(i)
        try:
            sid, k = place[x]
        except KeyError:
            raise self.nonmember_error(x) from None
        return strings[sid], k

    def nonmember_error(self, x) -> ValueError:
        """The error every query raises for an element outside generate()."""
        return ValueError(f"{x!r} is not an element of {self!r}")

    def f(self, i: int, x: BInfElement) -> BInfElement | None:
        members, k = self._locate(i, x)
        return members[k + 1] if k + 1 < len(members) else None

    def e(self, i: int, x: BInfElement) -> BInfElement | None:
        members, k = self._locate(i, x)
        return members[k - 1] if k else None

    def eps(self, i: int, x: BInfElement) -> int:
        return self._locate(i, x)[1]

    def phi(self, i: int, x: BInfElement) -> int:
        members, k = self._locate(i, x)
        return len(members) - 1 - k

    def wt(self, x: BInfElement) -> Weight:
        if x not in self.generate():
            raise self.nonmember_error(x)
        return w_add(self.lam, self.realization.wt(x))

    def generate(self) -> frozenset[BInfElement]:
        """Closure of the highest element under lowering; finite in finite type.
        f_i is asked once per member with phi_i > 0, and the lowering maps it
        records become the string index of every color."""
        if self._generated is None:
            if (size := weyl_dim(self.cartan, self.lam)) > MAX_ELEMENTS:
                raise CapacityError(f"{self!r} has {size} elements; the maximum is {MAX_ELEMENTS}")
            real, lam, colors = self.realization, self.lam, self.cartan.colors
            out = {self.highest}
            lower: dict[int, dict] = {i: {} for i in colors}
            frontier = [self.highest]
            while frontier:
                fresh = []
                for x in frontier:
                    for i in colors:
                        y = real.f(i, x) if real.phi(i, x) + lam[i - 1] > 0 else None
                        lower[i][x] = y
                        if y is not None and y not in out:
                            out.add(y)
                            fresh.append(y)
                            if len(out) > size:
                                raise RuntimeError(f"generation of {self!r} passed its {size} "
                                                   "elements; realization bug")
                frontier = fresh
            self._string_index = {i: self._build_index(i, lower[i]) for i in colors}
            self._generated = frozenset(out)
        return self._generated

    def string_index(self, i: int) -> tuple[tuple, dict]:
        """(strings, place): the i-strings as member tuples, heads in sort_key
        order, and the (string number, position) of every element.  Built by
        generate(), which the first call runs.  The color is checked first:
        the index answers 1.0 and True as 1."""
        if self.cartan.check_color(i) not in self._string_index:
            self.generate()
        return self._string_index[i]

    def _build_index(self, i: int, lower: dict) -> tuple[tuple, dict]:
        """string_index(i) read off the lowering map x -> f_i x (None at the
        boundary); normality is checked once per string against B(inf)."""
        strings, place = [], {}
        for n, head in enumerate(sorted(lower.keys() - lower.values(), key=self.sort_key)):
            chain, x = [], head
            while x is not None:
                if x in place:
                    raise RuntimeError("i-strings failed to partition the crystal")
                place[x] = (n, len(chain))
                chain.append(x)
                x = lower[x]
            # the index is not built yet, so read e and wt in B(inf)
            pairing = self.lam[i - 1] + self.realization.wt(head)[i - 1]
            if self.realization.e(i, head) is not None or pairing != len(chain) - 1:
                raise RuntimeError(
                    f"normality violated: color {i} string of length {len(chain) - 1} "
                    f"at {head!r}, pairing {pairing}"
                )
            strings.append(tuple(chain))
        if len(place) != len(lower):
            raise RuntimeError("i-strings failed to partition the crystal")
        return tuple(strings), place

    def strings(self, i: int) -> tuple[tuple[BInfElement, ...], ...]:
        """Partition into i-strings: tuples head, f head, ..., whose head s[0]
        is killed by raising."""
        return self.string_index(i)[0]

    def peel(self, x: BInfElement) -> tuple[int, ...]:
        # raising agrees with the ambient realization, so the peel word does too
        return self.realization.peel(x)

    def sort_key(self, x: BInfElement):
        return self.realization.sort_key(x)

    def __repr__(self) -> str:
        return f"BLambdaCrystal({self.cartan.type_label}, lam={self.lam})"


def b_lambda(type_label: str, lam: tuple[int, ...]) -> BLambdaCrystal:
    """Shared crystal instance over the type's main realization.  lam is
    checked before the lookup, whose key (2.0, 0) or (True, 0) would find the
    crystal of (2, 0) or (1, 0), or store float weights under it."""
    return _shared_b_lambda(type_label, cartan_matrix(type_label).check_dominant(lam))


@lru_cache(maxsize=None)
def _shared_b_lambda(type_label: str, lam: tuple[int, ...]) -> BLambdaCrystal:
    return BLambdaCrystal(b_inf(type_label), lam)


def clear_caches() -> None:
    """Drop the shared b_lambda and b_inf instances, and with them every
    string index and Demazure set they hold and every per-realization cache
    (operator, peel and star caches included)."""
    _shared_b_lambda.cache_clear()
    b_inf.cache_clear()


def char_map(crystal: BLambdaCrystal, x) -> WeightPolynomial:
    """Linear extension of element -> e^{wt(element)}; an element outside
    the crystal, alone or in a formal sum, is rejected by wt."""
    if not isinstance(x, FormalSum):
        x = FormalSum.basis(x)
    coeffs: dict[Weight, int] = {}
    for element, coeff in x.items():
        mu = crystal.wt(element)
        coeffs[mu] = coeffs.get(mu, 0) + coeff
    return WeightPolynomial(coeffs)
