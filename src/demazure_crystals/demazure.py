"""Demazure subsets of the highest-weight and infinity crystals, the additive
Demazure operator on formal sums, and executable checks of the structural
statements behind the refined character formula.

Words are stored in application order: the first letter acts first.  The
recursive construction closes under lowering along the letters in that
order, and the operator chain applies the matching operators in the same
order, so both agree with the usual indexing in which the last letter of a
reduced expression is applied last.

On B(lambda) both act one i-string at a time through the crystal's string
index: see demazure_operator and _f_closure_blambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .cartan import CartanData, enumerate_weyl, WeylElement
from .core import Elementary, ElementaryCrystal, FormalSum, TensorCrystal, TensorWord
from .binf import BInfRealization
from .blambda import BLambdaCrystal


@dataclass
class CheckReport:
    statement: str
    params: dict
    passed: bool
    witness: str | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and self.witness is None:
            self.witness = "unspecified failure"

    def __bool__(self) -> bool:
        return self.passed


def _require_reduced(cartan: CartanData, word) -> None:
    group = enumerate_weyl(cartan)
    if not group.is_reduced(tuple(word)):
        raise ValueError(f"word {tuple(word)} is not reduced")


def _first(elements) -> str:
    """The least repr among elements: the one a failure witness names."""
    return min(map(repr, elements))


def _f_closure_blambda(crystal: BLambdaCrystal, i: int, members):
    """Lowering closure along i: each string it meets from its smallest
    member position down."""
    strings, place = crystal.string_index(i)
    lowest: dict[int, int] = {}  # string number -> smallest member position
    try:
        for x in members:
            sid, k = place[x]
            lowest[sid] = min(k, lowest.get(sid, k))
    except KeyError as missing:
        raise crystal.nonmember_error(missing.args[0]) from None
    return {y for sid, k in lowest.items() for y in strings[sid][k:]}


def _closure(step, i, members, depth):
    """Union of the step-strings of the members up to depth.  A walk stops at
    the first element already reached: walks end only at depth, so that
    element's tail is in already."""
    out = set()
    for b in members:
        while True:
            size = len(out)
            out.add(b)  # one hash per step: the set grows unless b was reached
            if len(out) == size or b.depth >= depth:
                break
            b = step(i, b)
    return out


def _prefix_closure(ambient, cache, word, close) -> frozenset:
    """The Demazure set of a reduced word, memoized in cache by prefix: the
    highest element for the empty word, else close(last letter, set of the
    word without it)."""
    if word not in cache:
        _require_reduced(ambient.cartan, word)
        if word:
            prev = _prefix_closure(ambient, cache, word[:-1], close)
            cache[word] = frozenset(close(word[-1], prev))
        else:
            cache[word] = frozenset({ambient.highest})
    return cache[word]


def demazure_blambda(crystal: BLambdaCrystal, word) -> frozenset:
    """Recursive lowering closure along a reduced word, letters left to right."""
    return _prefix_closure(
        crystal,
        crystal._demazure_cache,
        tuple(word),
        lambda i, members: _f_closure_blambda(crystal, i, members),
    )


def demazure_binf(realization: BInfRealization, word, depth: int) -> frozenset:
    """Members of the recursive closure with depth at most depth; exact since
    each lowering raises depth by one."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _prefix_closure(
        realization,
        realization._demazure_cache.setdefault(depth, {}),
        tuple(word),
        lambda i, members: _closure(realization.f, i, members, depth),
    )


def demazure_operator(crystal: BLambdaCrystal, i: int, x: FormalSum) -> FormalSum:
    """Additive operator: for m = <wt(b), h_i>, a basis element maps to
    sum_{0<=k<=m} f^k b when m >= 0 and to -sum_{1<=k<=-m-1} e^k b when m < 0
    (empty when m = -1).

    On the i-string s_0, ..., s_L through b = s_k, normality (checked once
    per string by the index) gives m = L - 2k, so b maps to the run
    s_k, ..., s_{L-k} or to minus the run s_{L-k+1}, ..., s_{k-1}.  Each
    coefficient is added over its run in a difference array of its string,
    and one prefix sum per touched string gives the result.  An element
    outside the crystal raises ValueError."""
    strings, place = crystal.string_index(i)
    diffs: dict[int, list[int]] = {}  # string number -> difference array
    try:
        for b, coeff in x.items():
            sid, k = place[b]
            delta = diffs.get(sid)
            if delta is None:
                delta = diffs[sid] = [0] * (len(strings[sid]) + 1)
            # +coeff on k .. L-k, or -coeff on L-k+1 .. k-1: the same two steps
            delta[k] += coeff
            delta[len(delta) - 1 - k] -= coeff
    except KeyError as missing:
        raise crystal.nonmember_error(missing.args[0]) from None
    out = {}
    for sid, delta in diffs.items():
        acc = 0
        for element, step in zip(strings[sid], delta):
            acc += step
            if acc:
                out[element] = acc
    return x._like(out)


def _apply_operators(crystal: BLambdaCrystal, word, x: FormalSum) -> FormalSum:
    for i in word:
        x = demazure_operator(crystal, i, x)
    return x


def demazure_chain(crystal: BLambdaCrystal, word) -> FormalSum:
    """Operator chain applied to the highest element, first letter first."""
    return _apply_operators(crystal, word, FormalSum.basis(crystal.highest))


# ---------------------------------------------------------------------------
# checks


def refined_formula_check(crystal: BLambdaCrystal, word) -> CheckReport:
    """Multiset equality of the recursive set and the operator chain."""
    word = tuple(word)
    params = {"type": crystal.cartan.type_label, "lambda": crystal.lam, "word": word}
    members = demazure_blambda(crystal, word)
    chain = demazure_chain(crystal, word)
    if not chain.all_coefficients_one():
        bad = next(b for b, c in chain.items() if c != 1)
        return CheckReport(
            "EQ4", params, False, f"coefficient {chain.coefficient(bad)} at {bad!r}"
        )
    support = chain.support()
    if support != members:
        return CheckReport("EQ4", params, False, f"support mismatch at {_first(support ^ members)}")
    return CheckReport("EQ4", params, True, details={"size": len(members)})


def string_property_check(crystal: BLambdaCrystal, word) -> CheckReport:
    """String trichotomy for every color, plus the three-case analysis and the
    closure identity (EQ8) with respect to the last letter.  The three cases
    already fix the closure of the previous intersection, so EQ8 fails only
    when the closure disagrees with the string index."""
    word = tuple(word)
    params = {"type": crystal.cartan.type_label, "lambda": crystal.lam, "word": word}
    current = demazure_blambda(crystal, word)
    for i in crystal.cartan.colors:
        for s in crystal.strings(i):
            inter = current.intersection(s)
            if inter not in (set(), {s[0]}, set(s)):
                return CheckReport(
                    "EQ6", params, False,
                    f"color {i} string at {s[0]!r} meets the set in {len(inter)} elements",
                )
    if word:
        last = word[-1]
        previous = demazure_blambda(crystal, word[:-1])
        for s in crystal.strings(last):
            smembers = set(s)
            cur = current & smembers
            prev = previous & smembers
            three_cases = (
                (cur == set() and prev == set())
                or (cur == smembers and prev == smembers)
                or (cur == smembers and prev == {s[0]})
            )
            if not three_cases:
                return CheckReport(
                    "TRICHOTOMY", params, False,
                    f"string at {s[0]!r}: |current|={len(cur)}, |previous|={len(prev)}",
                )
            closure = _f_closure_blambda(crystal, last, prev)
            if cur != closure:
                return CheckReport(
                    "EQ8", params, False,
                    f"string at {s[0]!r}: closure of the previous intersection differs"
                    f" at {_first(cur ^ closure)}",
                )
    return CheckReport("EQ6", params, True)


def word_independence_check(crystal: BLambdaCrystal, w: WeylElement) -> CheckReport:
    group = enumerate_weyl(crystal.cartan)
    words = sorted(group.reduced_words(w))
    params = {
        "type": crystal.cartan.type_label,
        "lambda": crystal.lam,
        "element": w.canonical_word,
        "words": len(words),
    }
    reference = demazure_blambda(crystal, words[0])
    for word in words[1:]:
        members = demazure_blambda(crystal, word)
        if members != reference:
            return CheckReport(
                "WORD_INDEPENDENCE", params, False,
                f"words {words[0]} and {word} differ at {_first(members ^ reference)}",
            )
    return CheckReport("WORD_INDEPENDENCE", params, True, details={"size": len(reference)})


# --- structural statements over the infinity crystal -----------------------


def _restrict(members, depth: int):
    return frozenset(b for b in members if b.depth <= depth)


def _bases(realization, depth):
    return sorted(realization.generate(max(depth - 2, 0)), key=realization.sort_key)


def _check_psi(realization, depth, word):
    cartan = realization.cartan
    gen = realization.generate(depth)
    seen = {}
    for i in cartan.colors:
        pair = realization.psi(i, realization.highest)
        if pair != (realization.highest, Elementary(i, 0)):
            return f"highest element maps to {pair!r} at color {i}", None
    # the tensor rule on split pairs, one product per color
    tensors = {
        i: TensorCrystal(cartan, (realization, ElementaryCrystal(cartan, i)))
        for i in cartan.colors
    }
    for b in sorted(gen, key=realization.sort_key):
        for i in cartan.colors:
            bp, bpp = realization.psi(i, b)
            key = (i, bp, bpp)
            if key in seen and seen[key] != b:
                return f"psi_{i} collision between {seen[key]!r} and {b!r}", None
            seen[key] = b
            # starred lowering shows up on the split-off factor
            sp, spp = realization.psi(i, realization.f_star(i, b))
            if (sp, spp) != (bp, Elementary(i, bpp.level - 1)):
                return f"starred lowering mismatch at {b!r}, color {i}", None
            # commutation with the tensor rule on the split pair
            tensor = tensors[i]
            pair = TensorWord((bp, bpp))
            tf = tensor.f(i, pair)
            fp = realization.psi(i, realization.f(i, b))
            if tf is None or tf.parts != fp:
                return f"lowering does not commute at {b!r}, color {i}", None
            te = tensor.e(i, pair)
            be = realization.e(i, b)
            if (te is None) != (be is None):
                return f"raising zero mismatch at {b!r}, color {i}", None
            if be is not None and te.parts != realization.psi(i, be):
                return f"raising does not commute at {b!r}, color {i}", None
    return None, gen


def _check_lem31(realization, depth, word):
    colors = realization.cartan.colors
    f, f_star = realization.f, realization.f_star
    for b in _bases(realization, depth):
        for i, j in product(colors, colors):
            lhs = _closure(f, i, _closure(f_star, j, (b,), depth), depth)
            rhs = _closure(f_star, j, _closure(f, i, (b,), depth), depth)
            if lhs != rhs:
                return f"unions differ at base {b!r}, colors ({i},{j})", None
    return None, None


def _check_thm32(realization, depth, word):
    word = tuple(word)
    lhs = demazure_binf(realization, word, depth)
    rhs = {realization.highest}
    for letter in reversed(word):
        rhs = _closure(realization.f_star, letter, rhs, depth)
    rhs = frozenset(rhs)
    if lhs != rhs:
        return f"sets differ at {_first(lhs ^ rhs)}", None
    return None, lhs


def _check_cor33(realization, depth, word):
    word = tuple(word)
    forward = demazure_binf(realization, word, depth)
    starred = frozenset(realization.star(b) for b in forward)
    inverse = demazure_binf(realization, tuple(reversed(word)), depth)
    if starred != inverse:
        return f"sets differ at {_first(starred ^ inverse)}", None
    return None, starred


def _check_lem34(realization, depth, word):
    colors = realization.cartan.colors
    for b in _bases(realization, depth):
        for i, j in product(colors, colors):
            union = _closure(realization.f_star, j, (b,), depth)
            lhs = {realization.e(i, x) for x in union}
            lhs.discard(None)
            eb = realization.e(i, b)
            rhs = union if eb is None else union | _closure(realization.f_star, j, (eb,), depth)
            if not lhs <= rhs:
                return f"extra element {_first(lhs - rhs)} at base {b!r}, colors ({i},{j})", None
    return None, None


def _check_thm35(realization, depth, word):
    word = tuple(word)
    members = demazure_binf(realization, word, depth)
    for b in members:
        for i in realization.cartan.colors:
            eb = realization.e(i, b)
            if eb is not None and eb not in members:
                return f"raising escapes at {b!r}, color {i}", None
    return None, members


def _check_p3(realization, depth, word):
    word = tuple(word)
    members = demazure_binf(realization, word, depth)
    for b in members:
        for j in realization.cartan.colors:
            fb = realization.f(j, b)
            if fb in members and not _closure(realization.f, j, (fb,), depth) <= members:
                return f"string escapes at {b!r}, color {j}", None
    return None, members


def _check_thm35r(realization, depth, word):
    word = tuple(word)
    lhs = demazure_binf(realization, word, depth)
    if not word:
        return None, lhs
    shorter = demazure_binf(realization, word[1:], depth)
    rhs = frozenset(_closure(realization.f_star, word[0], shorter, depth))
    if lhs != rhs:
        return f"sets differ at {_first(lhs ^ rhs)}", None
    return None, lhs


# each handler returns (witness, result set): the witness is None on a pass,
# the set None where the statement yields none
_HANDLERS = {
    "PSI": _check_psi,
    "LEM31": _check_lem31,
    "THM32": _check_thm32,
    "COR33": _check_cor33,
    "LEM34": _check_lem34,
    "THM35": _check_thm35,
    "P3": _check_p3,
    "THM35R": _check_thm35r,
}

STRUCTURAL_STATEMENTS = tuple(sorted(_HANDLERS))
# the statements quantified over a reduced word; the others take none
WORD_STATEMENTS = frozenset({"THM32", "COR33", "THM35", "P3", "THM35R"})


def structural_check(
    statement: str,
    realization: BInfRealization,
    *,
    depth: int,
    word=None,
) -> CheckReport:
    """Run one structural statement at the given depth and again one level
    shallower; set-valued results must restrict consistently.

    The statements quantified over a base element take every element of
    depth <= max(depth - 2, 0) and every pair of colors.
    """
    statement = statement.upper()
    if statement not in _HANDLERS:
        raise ValueError(f"unknown statement {statement!r}; known: {', '.join(STRUCTURAL_STATEMENTS)}")
    if depth < 1:
        raise ValueError("structural checks need depth >= 1 for the shallower rerun")
    handler = _HANDLERS[statement]
    params = {
        "type": realization.cartan.type_label,
        "depth": depth,
        "word": None if word is None else tuple(word),
    }
    if statement in WORD_STATEMENTS and word is None:
        raise ValueError(f"statement {statement} needs a word")
    witness, full = handler(realization, depth, word)
    if witness is not None:
        return CheckReport(statement, params, False, witness)
    witness, shallow = handler(realization, depth - 1, word)
    if witness is not None:
        return CheckReport(statement, params, False, f"fails at depth {depth - 1}: {witness}")
    if full is not None and _restrict(full, depth - 1) != shallow:
        return CheckReport(
            statement, params, False,
            f"depth {depth} result does not restrict to depth {depth - 1}",
        )
    return CheckReport(statement, params, True, details={"stable": True})


def star_involution_check(realization: BInfRealization, depth: int) -> CheckReport:
    """The star map on the elements of depth <= depth is a weight-preserving
    involution that twists lowering into starred lowering."""
    params = {"type": realization.cartan.type_label, "depth": depth}
    for b in sorted(realization.generate(depth), key=realization.sort_key):
        sb = realization.star(b)
        if realization.star(sb) != b:
            return CheckReport("STAR", params, False, f"involution fails at {b!r}")
        if realization.wt(sb) != realization.wt(b):
            return CheckReport("STAR", params, False, f"weight not preserved at {b!r}")
        if b.depth < depth:
            for i in realization.cartan.colors:
                if realization.star(realization.f(i, b)) != realization.f_star(i, sb):
                    return CheckReport(
                        "STAR", params, False, f"twisted lowering fails at {b!r}, color {i}"
                    )
    return CheckReport("STAR", params, True)


def binf_consistency_check(crystal: BLambdaCrystal, word, depth: int) -> CheckReport:
    """The members of the crystal in the truncated infinity-side set are the
    truncation of the highest-weight-side set: B(lam) elements are B(inf)
    elements, so the two sets compare directly."""
    word = tuple(word)
    params = {
        "type": crystal.cartan.type_label,
        "lambda": crystal.lam,
        "word": word,
        "depth": depth,
    }
    real = crystal.realization
    preimage = {b for b in demazure_binf(real, word, depth) if crystal.contains_base(b)}
    truncated = {
        x for x in demazure_blambda(crystal, word) if x.depth <= depth
    }
    if preimage != truncated:
        return CheckReport("IOTA", params, False, f"sets differ at {_first(preimage ^ truncated)}")
    return CheckReport("IOTA", params, True)


_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def braid_order(cartan: CartanData, i: int, j: int) -> int:
    return _BRAID_ORDER[cartan.matrix[i - 1][j - 1] * cartan.matrix[j - 1][i - 1]]


def braid_witness_search(crystal: BLambdaCrystal, i: int, j: int) -> CheckReport:
    """Search basis elements where the alternating operator products differ,
    and confirm equality on every length-additive Demazure sum.

    The witness list is informational: the operators are not expected to
    satisfy the braid relations on single elements.  The verdict reflects
    only the Demazure-sum instances.
    """
    if i == j:
        raise ValueError("braid search needs two distinct colors")
    cartan = crystal.cartan
    m = braid_order(cartan, i, j)
    seq_ij = tuple(i if k % 2 == 0 else j for k in range(m))
    seq_ji = tuple(j if k % 2 == 0 else i for k in range(m))
    apply_ij = tuple(reversed(seq_ij))
    apply_ji = tuple(reversed(seq_ji))
    params = {"type": cartan.type_label, "lambda": crystal.lam, "colors": (i, j), "order": m}

    witnesses = []
    for b in sorted(crystal.generate(), key=crystal.sort_key):
        lhs = _apply_operators(crystal, apply_ij, FormalSum.basis(b))
        rhs = _apply_operators(crystal, apply_ji, FormalSum.basis(b))
        if lhs != rhs:
            witnesses.append(b)

    group = enumerate_weyl(cartan)
    braid_elt = group.element_of_word(apply_ij)
    checked = 0
    for w2 in group:
        total = group.element_of_word(w2.canonical_word + apply_ij)
        if total.length != w2.length + m:
            continue
        checked += 1
        base = FormalSum.from_elements(demazure_blambda(crystal, w2.canonical_word))
        lhs = _apply_operators(crystal, apply_ij, base)
        if lhs != _apply_operators(crystal, apply_ji, base):
            return CheckReport(
                "EQ9", params, False,
                f"Demazure sums differ over the word {w2.canonical_word}",
                details={"witnesses": [repr(b) for b in witnesses]},
            )
    return CheckReport(
        "EQ9",
        params,
        True,
        details={
            "braid_length": braid_elt.length,
            "sum_instances": checked,
            "witness_count": len(witnesses),
            "witnesses": [repr(b) for b in witnesses[:5]],
        },
    )
