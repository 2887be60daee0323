import sys
from pathlib import Path

import pytest

try:
    import demazure_crystals  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from demazure_crystals import (  # noqa: E402  (after the path fallback above)
    NEG_INF,
    BInfRealization,
    ElementaryCrystal,
    FormalSum,
    TensorCrystal,
    cartan_matrix,
    clear_caches,
    demazure_blambda,
    enumerate_weyl,
    w_add,
    w_scale,
)
from demazure_crystals import demazure  # noqa: E402
from demazure_crystals.cartan import _CARTAN_MATRICES  # noqa: E402


class WindowOracle:
    """Operators of a B(inf) realization recomputed on an explicit tensor word.

    Each element becomes a TensorCrystal of ElementaryCrystal factors covering
    its support plus three all-zero blocks.  The realization reads the
    support alone and keeps no zero factor, so a wrong term for the factors
    left of the support shows up as a disagreement.
    """

    def __init__(self, realization):
        self.realization = realization

    def _tensor(self, b):
        block = self.realization.block
        length = len(block)
        n = ((len(b) + length - 1) // length + 3) * length
        coords = b + (0,) * (n - len(b))
        positions = range(n, 0, -1)  # leftmost factor first; position 1 is rightmost
        colors = [block[(p - 1) % length] for p in positions]
        cartan = self.realization.cartan
        tensor = TensorCrystal(cartan, [ElementaryCrystal(cartan, c) for c in colors])
        word = tuple(-coords[p - 1] for p in positions)
        return tensor, word

    @staticmethod
    def _element(word):
        coords = [-part for part in reversed(word)]
        while coords and coords[-1] == 0:
            coords.pop()
        return tuple(coords)

    def f(self, i, b):
        tensor, word = self._tensor(b)
        return self._element(tensor.f(i, word))

    def e(self, i, b):
        tensor, word = self._tensor(b)
        return self._element(tensor.e(i, word))

    def eps(self, i, b):
        tensor, word = self._tensor(b)
        return tensor.eps(i, word)

    def phi(self, i, b):
        tensor, word = self._tensor(b)
        return tensor.phi(i, word)


class StarOracle:
    """Starred operators of a B(inf) realization by whole-word conversion.

    Works on a fresh, unshared realization with the same block and on fresh
    rotations of it, so it shares no cache with the realization under test.
    Every conversion peels the element to the highest one by the greedy rule
    (smallest color with positive eps) and replays the whole word in the
    target: convert(dst, src, b) = dst.replay(peel(src, b)).  Nothing is
    memoized above the plain operators f, e and eps.
    """

    def __init__(self, realization):
        cartan = realization.cartan
        block = realization.block
        self.real = BInfRealization(cartan, block)
        self._rotations = {
            k: BInfRealization(cartan, block[k:] + block[:k]) for k in range(1, len(block))
        }
        self._rotations[0] = self.real

    @staticmethod
    def peel(src, b):
        word = []
        while b:
            i = next(i for i in src.cartan.colors if src.eps(i, b) > 0)
            word.append(i)
            b = src.e(i, b)
        return tuple(word)

    def convert(self, dst, src, b):
        return dst.replay(self.peel(src, b))

    def _rotation_for_color(self, i):
        k = self.real.block.index(i)
        length = len(self.real.block)
        return self._rotations[k], self._rotations[(k + 1) % length]

    def psi(self, i, b):
        rot, shift = self._rotation_for_color(i)
        rb = self.convert(rot, self.real, b)
        a1 = rb[0] if rb else 0
        rest = rb[1:]
        return self.convert(self.real, shift, rest), -a1

    def eps_star(self, i, b):
        rot, _ = self._rotation_for_color(i)
        rb = self.convert(rot, self.real, b)
        return rb[0] if rb else 0

    def f_star(self, i, b):
        rot, _ = self._rotation_for_color(i)
        coords = self.convert(rot, self.real, b) or (0,)
        bumped = (coords[0] + 1,) + coords[1:]
        return self.convert(self.real, rot, bumped)

    def e_star(self, i, b):
        rot, _ = self._rotation_for_color(i)
        coords = self.convert(rot, self.real, b)
        if not coords or coords[0] == 0:
            return None
        lowered = list((coords[0] - 1,) + coords[1:])
        while lowered and lowered[-1] == 0:
            lowered.pop()
        return self.convert(self.real, rot, tuple(lowered))

    def star(self, b):
        cur = self.real.highest
        for j in reversed(self.peel(self.real, b)):
            cur = self.f_star(j, cur)
        return cur


@pytest.fixture
def window_oracle():
    return WindowOracle


@pytest.fixture
def star_oracle():
    return StarOracle


def eager_tensor_rule(tensor, i, word, strict):
    """The tensor rule's acting factor read eagerly: eps, phi and wt of every
    factor, the prefix phi accumulated as max(phi, acc + wt) from the first
    factor on, then the leftward scan moving while the prefix phi beats eps
    (> when strict, for f; >= for e).  Returns the image of f (strict) or e,
    or None for zero."""
    eps_k, phi_pref = [], []
    acc = NEG_INF
    for fc, part in zip(tensor.factors, word):
        eps_k.append(fc.eps(i, part))
        acc = max(fc.phi(i, part), acc + fc.wt(part)[i - 1])
        phi_pref.append(acc)
    j = len(word) - 1
    while j > 0 and (phi_pref[j - 1] > eps_k[j] if strict else phi_pref[j - 1] >= eps_k[j]):
        j -= 1
    fc = tensor.factors[j]
    part = fc.f(i, word[j]) if strict else fc.e(i, word[j])
    return None if part is None else word[:j] + (part,) + word[j + 1 :]


@pytest.fixture
def eager_tensor():
    return eager_tensor_rule


def tensor_psi_pass(realization, table, i, depth):
    """PSI's pass for color i on element pairs: each id splits into the pair
    (e*_i^a b, -a) of B(inf) x B_i, and the pair's images under f_i and e_i
    are asked of a TensorCrystal of the realization and ElementaryCrystal(i).
    Returns the first failure as (id, i, witness), or None, with the
    witnesses of demazure._psi_pass."""
    cartan, elements, e = realization.cartan, table.elements, table.e[i]
    tensor = TensorCrystal(cartan, (realization, ElementaryCrystal(cartan, i)))
    split, owner = {}, {}

    def psi(x):  # the top of the e_i walk from star[x], starred, and the walk's length
        if x not in split:
            y, a = table.star[x], 0
            while e[y] >= 0:
                y, a = e[y], a + 1
            split[x] = elements[table.star[y]], -a
        return split[x]

    for x in range(table.starts[depth + 1]):
        b, pair = elements[x], psi(x)
        if owner.setdefault(pair, b) != b:
            return x, i, f"psi_{i} collision between {owner[pair]!r} and {b!r}"
        if psi(table.f_star[i][x]) != (pair[0], pair[1] - 1):
            return x, i, f"starred lowering mismatch at {b!r}, color {i}"
        if tensor.f(i, pair) != psi(table.f[i][x]):
            return x, i, f"lowering does not commute at {b!r}, color {i}"
        te = tensor.e(i, pair)
        if (te is None) != (e[x] < 0):
            return x, i, f"raising zero mismatch at {b!r}, color {i}"
        if e[x] >= 0 and te != psi(e[x]):
            return x, i, f"raising does not commute at {b!r}, color {i}"
    return None


def tensor_psi(realization, depth):
    """PSI's witness by tensor_psi_pass, the least (id, color) failure over
    the colors, or None."""
    table = realization.table(depth)
    passes = (tensor_psi_pass(realization, table, i, depth) for i in realization.cartan.colors)
    failures = [out for out in passes if out]
    return min(failures)[2] if failures else None


@pytest.fixture
def tensor_psi_oracle():
    return tensor_psi


def corrupt_columns_of(realization, corrupt):
    """Route a corruption through the realization's next table builds: the f,
    e and star columns of _columns go to corrupt(f, e, star, x), x the id of
    an element, which changes them in place before f* and the weights are
    derived from them."""
    columns = realization._columns

    def corrupted(depth):
        f, e, star = columns(depth)
        corrupt(f, e, star, realization._elements.index)
        return f, e, star

    realization._columns = corrupted


@pytest.fixture
def corrupt_columns():
    """corrupt_columns(realization, corrupt): see corrupt_columns_of."""
    return corrupt_columns_of


class StringWalkOracle:
    """The Demazure operator, the lowering closure and the i-string partition
    of a B(lambda) crystal by walking f and e element by element.

    Each term of a sum reads its pairing from wt and steps along its string
    one operator call at a time; each closure member walks its string tail;
    strings sort every element by sort_key and walk f from those with eps 0.
    Nothing here reads the crystal's string index.
    """

    @staticmethod
    def demazure_operator(crystal, i, x):
        out = {}
        for b, coeff in x.items():
            m = crystal.wt(b)[i - 1]
            if m >= 0:
                cur = b
                for k in range(m + 1):
                    out[cur] = out.get(cur, 0) + coeff
                    if k < m:
                        cur = crystal.f(i, cur)
                        if cur is None:
                            raise RuntimeError(
                                f"normality violated: f_{i}^{k + 1} vanished below weight {m}"
                            )
            else:
                cur = b
                for k in range(1, -m):
                    cur = crystal.e(i, cur)
                    if cur is None:
                        raise RuntimeError(
                            f"normality violated: e_{i}^{k} vanished above weight {m}"
                        )
                    out[cur] = out.get(cur, 0) - coeff
        return FormalSum(out)

    @staticmethod
    def f_closure(crystal, i, members):
        out = set(members)
        for x in members:
            cur = x
            while (cur := crystal.f(i, cur)) is not None:
                out.add(cur)
        return out

    @staticmethod
    def strings(crystal, i):
        out = []
        for head in sorted(crystal.generate(), key=crystal.sort_key):
            if crystal.eps(i, head) != 0:
                continue
            chain = [head]
            while (cur := crystal.f(i, chain[-1])) is not None:
                chain.append(cur)
            out.append((head, tuple(chain)))
        return out


@pytest.fixture
def string_walk_oracle():
    return StringWalkOracle


def wt_by_coordinates(realization, b):
    """Weight of a B(inf) element, one coordinate at a time: the sum of
    -a_k alpha_{color k} over the nonzero coordinates, each term a fresh
    weight tuple.  BInfRealization.wt sums per color and multiplies once."""
    length = len(realization.block)
    val = (0,) * realization.cartan.rank
    for k, a in enumerate(b):
        if a:
            color = realization.block[k % length]
            val = w_add(val, w_scale(-a, realization.cartan.alpha(color)))
    return val


@pytest.fixture
def wt_oracle():
    return wt_by_coordinates


def _clear_type_caches():
    cartan_matrix.cache_clear()
    enumerate_weyl.cache_clear()
    clear_caches()


@pytest.fixture
def add_type(monkeypatch):
    """add_type(label, matrix) puts a test-only Cartan matrix in the type
    table.  cartan_matrix, enumerate_weyl, b_inf and b_lambda cache their
    records by type, so every one of those caches is cleared before the
    test and again after it, before the table is restored."""
    _clear_type_caches()
    yield lambda label, matrix: monkeypatch.setitem(_CARTAN_MATRICES, label, matrix)
    _clear_type_caches()


def _string_union(step, cut, ids):
    """Every id on the step-strings (step a table list) of ids, each string
    followed to its first id at or past the cut."""
    out = set()
    for x in ids:
        out.add(x)
        while x < cut:
            x = step[x]
            out.add(x)
    return out


def _union_bases(table, depth):
    """The bases of the union loops: every id of depth <= max(depth - 2, 0).
    At depth < 2 the one base, the highest element, passes on any graded
    table, which is why the split checks take no base there."""
    return range(table.starts[max(depth - 1, 1)])


def lem31_unions(realization, depth):
    """LEM31 by its unions for every color pair, i != j included: at each
    base b, the f_i strings through the f*_j string of b and the f*_j strings
    through the f_i string of b, cut at depth, are the same set.  Returns the
    first failure in (base, i, j) order as (base element, i, j), or None."""
    colors, table = realization.cartan.colors, realization.table(depth)
    cut = table.starts[depth]
    for x in _union_bases(table, depth):
        for i in colors:
            for j in colors:
                f, f_star = table.f[i], table.f_star[j]
                lhs = _string_union(f, cut, _string_union(f_star, cut, (x,)))
                rhs = _string_union(f_star, cut, _string_union(f, cut, (x,)))
                if lhs != rhs:
                    return table.elements[x], i, j
    return None


def lem34_unions(realization, depth):
    """LEM34 by its unions for every color pair, i != j included: at each
    base b, e_i maps the f*_j string of b into that string together with the
    f*_j string of e_i b (the first alone when e_i b is zero).  Returns the
    first failure in (base, i, j) order as (base element, i, j), or None."""
    colors, table = realization.cartan.colors, realization.table(depth)
    cut = table.starts[depth]
    for x in _union_bases(table, depth):
        for i in colors:
            for j in colors:
                e, f_star = table.e[i], table.f_star[j]
                union = _string_union(f_star, cut, (x,))
                lhs = {e[y] for y in union} - {-1}
                rhs = union if e[x] < 0 else union | _string_union(f_star, cut, (e[x],))
                if not lhs <= rhs:
                    return table.elements[x], i, j
    return None


@pytest.fixture
def base_union_oracles():
    """{"LEM31": lem31_unions, "LEM34": lem34_unions}."""
    return {"LEM31": lem31_unions, "LEM34": lem34_unions}


@pytest.fixture
def string_union():
    """The union loops' string walk: string_union(step, cut, ids)."""
    return _string_union


def p3_walk(table, depth, members):
    """P3 by walking the strings: for every member x of depth < depth and
    every color j with f_j x a member, the whole f_j string tail of f_j x,
    down to its first id of depth >= depth, lies in members (a set of ids of
    table).  Returns the first failure in (x, j) order as (element, j), or
    None."""
    cut = table.starts[depth]
    for x in range(cut):
        if x in members:
            for j, f in table.f.items():
                if f[x] in members and not _string_union(f, cut, (f[x],)) <= members:
                    return table.elements[x], j
    return None


@pytest.fixture
def p3_walk_oracle():
    return p3_walk


def string_property_walk(crystal, word):
    """The string property by visiting every string: each i-string of every
    color meets the Demazure set of word in nothing, its head or all of it
    (EQ6), and each string of the last letter meets the set and the previous
    one in one of three ways (TRICHOTOMY), on which the closure of the
    previous intersection is the current one (EQ8).  Reads the memoized sets
    through demazure_blambda and the strings through crystal.strings.
    Returns the first failure as (statement, witness), or None."""
    word = tuple(word)
    current = demazure_blambda(crystal, word)
    for i in crystal.cartan.colors:
        for s in crystal.strings(i):
            inter = current.intersection(s)
            if inter not in (set(), {s[0]}, set(s)):
                return "EQ6", f"color {i} string at {s[0]!r} meets the set in {len(inter)} elements"
    if word:
        last = word[-1]
        previous = demazure_blambda(crystal, word[:-1])
        for s in crystal.strings(last):
            smembers = set(s)
            cur, prev = current & smembers, previous & smembers
            if (cur, prev) not in ((set(), set()), (smembers, smembers), (smembers, {s[0]})):
                return "TRICHOTOMY", f"string at {s[0]!r}: |current|={len(cur)}, |previous|={len(prev)}"
            closure = demazure._f_closure_blambda(crystal, last, prev)
            if cur != closure:
                return "EQ8", (
                    f"string at {s[0]!r}: closure of the previous intersection differs"
                    f" at {demazure._first(cur ^ closure)}"
                )
    return None


@pytest.fixture
def string_property_oracle():
    return string_property_walk
