"""Crystal structures: the elementary one-color crystals, whose elements are
their levels, tensor products, and integer formal sums.

Every crystal realization exposes five operations: f(i, b) and e(i, b),
which return None for the zero outcome (None is never an element), plus the
statistics eps(i, b) and phi(i, b) valued in Z union {-inf}, and wt(b).
The -inf sentinel is float("-inf"): it already gives a total order on
statistics and absorbs the integer addition of the tensor rule.
"""

from __future__ import annotations

from .cartan import CartanData, Weight, w_add, w_scale

NEG_INF: float = float("-inf")
ExtInt = int | float


class ElementaryCrystal:
    """Free one-color crystal {b_i(n)}: an element is its level n, a plain int,
    and the color i is the crystal's.  Lowering decreases the level by one; on
    color i, eps(n) = -n and phi(n) = n, and every other color sees -inf and
    acts by zero.
    """

    def __init__(self, cartan: CartanData, color: int):
        self.cartan = cartan
        self.color = cartan.check_color(color)

    def f(self, i: int, n: int) -> int | None:
        return n - 1 if i == self.color else None

    def e(self, i: int, n: int) -> int | None:
        return n + 1 if i == self.color else None

    def eps(self, i: int, n: int) -> ExtInt:
        return -n if i == self.color else NEG_INF

    def phi(self, i: int, n: int) -> ExtInt:
        return n if i == self.color else NEG_INF

    def wt(self, n: int) -> Weight:
        return w_scale(n, self.cartan.alpha(self.color))


class TensorCrystal:
    """Tensor product of crystal realizations over one Cartan datum.

    An element is the plain tuple of its factors' elements, leftmost factor
    first.  The binary rule acts on the left factor when phi(left) >
    eps(right) for lowering, and when phi(left) >= eps(right) for raising;
    words of length greater than two fold the binary rule left-nested.

    f and e read only what the rule compares: phi of each proper prefix, from
    the factor's own phi (never eps + wt), and eps of the factors the
    leftward scan passes.  A weight is read only once the prefix phi is finite.
    """

    def __init__(self, cartan: CartanData, factors):
        self.cartan = cartan
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("tensor product needs at least one factor")

    def _factors_for(self, word: tuple) -> tuple:
        """The factors, once word is checked to have one part per factor."""
        if len(word) != len(self.factors):
            raise ValueError(f"word has {len(word)} parts for {len(self.factors)} factors")
        return self.factors

    def _parts(self, word: tuple):
        return zip(self._factors_for(word), word)

    def _acting(self, i: int, word: tuple, strict: bool) -> int:
        """The factor the rule acts on: scanning leftward from the last, the
        first j > 0 whose eps the phi of the prefix before it does not beat
        (> when strict, for f; >= for e), else 0."""
        factors = self._factors_for(word)
        acc, prefix = NEG_INF, []
        for k in range(len(word) - 1):
            phi = factors[k].phi(i, word[k])
            acc = phi if acc == NEG_INF else max(phi, acc + factors[k].wt(word[k])[i - 1])
            prefix.append(acc)
        for j in range(len(word) - 1, 0, -1):
            eps = factors[j].eps(i, word[j])
            if prefix[j - 1] < eps or strict and prefix[j - 1] == eps:
                return j
        return 0

    def _replace(self, word: tuple, j: int, part) -> tuple:
        return word[:j] + (part,) + word[j + 1 :]

    def f(self, i: int, word: tuple) -> tuple | None:
        j = self._acting(i, word, True)
        part = self.factors[j].f(i, word[j])
        return None if part is None else self._replace(word, j, part)

    def e(self, i: int, word: tuple) -> tuple | None:
        j = self._acting(i, word, False)
        part = self.factors[j].e(i, word[j])
        return None if part is None else self._replace(word, j, part)

    def eps(self, i: int, word: tuple) -> ExtInt:
        acc = NEG_INF
        wt_acc = 0
        for fc, part in self._parts(word):
            acc = max(acc, fc.eps(i, part) - wt_acc)
            wt_acc += fc.wt(part)[i - 1]
        return acc

    def phi(self, i: int, word: tuple) -> ExtInt:
        acc = NEG_INF
        for fc, part in self._parts(word):
            acc = max(fc.phi(i, part), acc + fc.wt(part)[i - 1])
        return acc

    def wt(self, word: tuple) -> Weight:
        total = (0,) * self.cartan.rank
        for fc, part in self._parts(word):
            total = w_add(total, fc.wt(part))
        return total


class FormalSum:
    """Finitely supported integer combination of hashable keys.

    Arithmetic keeps the class of its left operand, and sums of different
    classes never compare equal, so subclasses share this container.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for key, val in items:
                acc = data.get(key, 0) + val
                if acc:
                    data[key] = acc
                elif key in data:
                    del data[key]
        self._coeffs = data

    @classmethod
    def zero(cls) -> FormalSum:
        return cls()

    @classmethod
    def basis(cls, element) -> FormalSum:
        return cls({element: 1})

    @classmethod
    def from_elements(cls, elements) -> FormalSum:
        out = {}
        for x in elements:
            out[x] = out.get(x, 0) + 1
        return cls(out)

    def items(self):
        return self._coeffs.items()

    def coefficient(self, element) -> int:
        return self._coeffs.get(element, 0)

    def support(self) -> frozenset:
        return frozenset(self._coeffs)

    def all_coefficients_one(self) -> bool:
        return all(v == 1 for v in self._coeffs.values())

    def _like(self, coeffs: dict) -> FormalSum:
        """A sum of this class holding coeffs, which has no zero values."""
        result = type(self)()
        result._coeffs = coeffs
        return result

    def __add__(self, other: FormalSum) -> FormalSum:
        out = dict(self._coeffs)
        for key, val in other._coeffs.items():
            acc = out.get(key, 0) + val
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return self._like(out)

    def __neg__(self) -> FormalSum:
        return self._like({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other: FormalSum) -> FormalSum:
        return self + (-other)

    def __rmul__(self, n: int) -> FormalSum:
        if n == 0:
            return type(self)()
        return self._like({k: n * v for k, v in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "FormalSum(0)"
        body = " + ".join(f"{v}*{k!r}" for k, v in self._coeffs.items())
        return f"FormalSum({body})"
