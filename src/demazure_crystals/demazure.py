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
from .blambda import BLambdaCrystal, BLambdaElement


@dataclass(frozen=True)
class DemazureSet:
    word: tuple[int, ...]
    ambient: str
    members: frozenset

    def __len__(self) -> int:
        return len(self.members)


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
        raise ValueError(f"{missing.args[0]!r} is not an element of {crystal!r}") from None
    return {y for sid, k in lowest.items() for y in strings[sid].members[k:]}


def demazure_blambda(crystal: BLambdaCrystal, word) -> DemazureSet:
    """Recursive lowering closure along a reduced word, letters left to right."""
    word = tuple(word)
    cache = crystal._demazure_cache
    if word not in cache:
        _require_reduced(crystal.cartan, word)
        if word:
            prev = demazure_blambda(crystal, word[:-1]).members
            members = frozenset(_f_closure_blambda(crystal, word[-1], prev))
        else:
            members = frozenset({crystal.highest})
        cache[word] = DemazureSet(word, f"B(lambda={crystal.lam})", members)
    return cache[word]


def _string(step, i, b, depth):
    """b, step(i, b), step(i, step(i, b)), ... up to depth; step is f or f_star."""
    out = [b]
    while b.depth < depth:
        b = step(i, b)
        out.append(b)
    return out


def _closure(step, i, members, depth):
    out = set()
    for x in members:
        out.update(_string(step, i, x, depth))
    return out


def demazure_binf(realization: BInfRealization, word, depth: int) -> DemazureSet:
    """Members of the recursive closure with depth at most depth; exact since
    each lowering raises depth by one."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    word = tuple(word)
    cache = realization._demazure_cache
    key = (word, depth)
    if key not in cache:
        _require_reduced(realization.cartan, word)
        if word:
            prev = demazure_binf(realization, word[:-1], depth).members
            members = frozenset(_closure(realization.f, word[-1], prev, depth))
        else:
            members = frozenset({realization.highest})
        cache[key] = DemazureSet(word, f"B(inf) depth<={depth}", members)
    return cache[key]


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
                delta = diffs[sid] = [0] * (len(strings[sid].members) + 1)
            # +coeff on k .. L-k, or -coeff on L-k+1 .. k-1: the same two steps
            delta[k] += coeff
            delta[len(delta) - 1 - k] -= coeff
    except KeyError as missing:
        raise ValueError(f"{missing.args[0]!r} is not an element of {crystal!r}") from None
    out = {}
    for sid, delta in diffs.items():
        acc = 0
        for element, step in zip(strings[sid].members, delta):
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


def demazure_sum(dem: DemazureSet) -> FormalSum:
    return FormalSum.from_elements(dem.members)


# ---------------------------------------------------------------------------
# checks


def refined_formula_check(crystal: BLambdaCrystal, word) -> CheckReport:
    """Multiset equality of the recursive set and the operator chain."""
    word = tuple(word)
    params = {"type": crystal.cartan.type_label, "lambda": crystal.lam, "word": word}
    members = demazure_blambda(crystal, word).members
    chain = demazure_chain(crystal, word)
    if not chain.all_coefficients_one():
        bad = next(b for b, c in chain.items() if c != 1)
        return CheckReport(
            "EQ4", params, False, f"coefficient {chain.coefficient(bad)} at {bad!r}"
        )
    if chain.support() != members:
        diff = chain.support() ^ members
        return CheckReport("EQ4", params, False, f"support mismatch at {sorted(map(repr, diff))[0]}")
    return CheckReport("EQ4", params, True, details={"size": len(members)})


def string_property_check(crystal: BLambdaCrystal, word) -> CheckReport:
    """String trichotomy for every color, plus the three-case analysis and the
    closure identity with respect to the last letter."""
    word = tuple(word)
    params = {"type": crystal.cartan.type_label, "lambda": crystal.lam, "word": word}
    current = demazure_blambda(crystal, word).members
    for i in crystal.cartan.colors:
        for s in crystal.strings(i):
            inter = current & set(s.members)
            if inter not in (set(), {s.head}, set(s.members)):
                return CheckReport(
                    "EQ6", params, False,
                    f"color {i} string at {s.head!r} meets the set in {len(inter)} elements",
                )
    if word:
        last = word[-1]
        previous = demazure_blambda(crystal, word[:-1]).members
        for s in crystal.strings(last):
            smembers = set(s.members)
            cur = current & smembers
            prev = previous & smembers
            three_cases = (
                (cur == set() and prev == set())
                or (cur == smembers and prev == smembers)
                or (cur == smembers and prev == {s.head})
            )
            if not three_cases:
                return CheckReport(
                    "TRICHOTOMY", params, False,
                    f"string at {s.head!r}: |current|={len(cur)}, |previous|={len(prev)}",
                )
            closure = _f_closure_blambda(crystal, last, prev)
            if cur != closure:
                return CheckReport(
                    "EQ8", params, False,
                    f"string at {s.head!r}: closure of the previous intersection differs",
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
    reference = demazure_blambda(crystal, words[0]).members
    for word in words[1:]:
        members = demazure_blambda(crystal, word).members
        if members != reference:
            diff = members ^ reference
            return CheckReport(
                "WORD_INDEPENDENCE", params, False,
                f"words {words[0]} and {word} differ at {sorted(map(repr, diff))[0]}",
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
            return False, f"highest element maps to {pair!r} at color {i}", {}
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
                return False, f"psi_{i} collision between {seen[key]!r} and {b!r}", {}
            seen[key] = b
            # starred lowering shows up on the split-off factor
            sp, spp = realization.psi(i, realization.f_star(i, b))
            if (sp, spp) != (bp, Elementary(i, bpp.level - 1)):
                return False, f"starred lowering mismatch at {b!r}, color {i}", {}
            # commutation with the tensor rule on the split pair
            tensor = tensors[i]
            pair = TensorWord((bp, bpp))
            tf = tensor.f(i, pair)
            fp = realization.psi(i, realization.f(i, b))
            if tf is None or tf.parts != fp:
                return False, f"lowering does not commute at {b!r}, color {i}", {}
            te = tensor.e(i, pair)
            be = realization.e(i, b)
            if (te is None) != (be is None):
                return False, f"raising zero mismatch at {b!r}, color {i}", {}
            if be is not None and te.parts != realization.psi(i, be):
                return False, f"raising does not commute at {b!r}, color {i}", {}
    return True, None, {"gen": gen}


def _check_lem31(realization, depth, word):
    colors = realization.cartan.colors
    for b in _bases(realization, depth):
        for i, j in product(colors, colors):
            lhs, rhs = set(), set()
            for x in _string(realization.f_star, j, b, depth):
                lhs.update(_string(realization.f, i, x, depth))
            for y in _string(realization.f, i, b, depth):
                rhs.update(_string(realization.f_star, j, y, depth))
            if lhs != rhs:
                return False, f"unions differ at base {b!r}, colors ({i},{j})", {}
    return True, None, {}


def _check_thm32(realization, depth, word):
    word = tuple(word)
    lhs = demazure_binf(realization, word, depth).members
    rhs = {realization.highest}
    for letter in reversed(word):
        rhs = _closure(realization.f_star, letter, rhs, depth)
    rhs = frozenset(rhs)
    if lhs != rhs:
        diff = lhs ^ rhs
        return False, f"sets differ at {sorted(map(repr, diff))[0]}", {}
    return True, None, {"set": lhs}


def _check_cor33(realization, depth, word):
    word = tuple(word)
    forward = demazure_binf(realization, word, depth).members
    starred = frozenset(realization.star(b) for b in forward)
    inverse = demazure_binf(realization, tuple(reversed(word)), depth).members
    if starred != inverse:
        diff = starred ^ inverse
        return False, f"sets differ at {sorted(map(repr, diff))[0]}", {}
    return True, None, {"set": starred}


def _check_lem34(realization, depth, word):
    colors = realization.cartan.colors
    for b in _bases(realization, depth):
        for i, j in product(colors, colors):
            union = set(_string(realization.f_star, j, b, depth))
            lhs = {realization.e(i, x) for x in union}
            lhs.discard(None)
            rhs = set(union)
            eb = realization.e(i, b)
            if eb is not None:
                rhs.update(_string(realization.f_star, j, eb, depth))
            if not lhs <= rhs:
                extra = lhs - rhs
                return False, f"extra element {sorted(map(repr, extra))[0]} at base {b!r}, colors ({i},{j})", {}
    return True, None, {}


def _check_thm35(realization, depth, word):
    word = tuple(word)
    members = demazure_binf(realization, word, depth).members
    for b in members:
        for i in realization.cartan.colors:
            eb = realization.e(i, b)
            if eb is not None and eb not in members:
                return False, f"raising escapes at {b!r}, color {i}", {}
    return True, None, {"set": members}


def _check_p3(realization, depth, word):
    word = tuple(word)
    members = demazure_binf(realization, word, depth).members
    for b in members:
        for j in realization.cartan.colors:
            fb = realization.f(j, b)
            if fb in members and not members.issuperset(_string(realization.f, j, fb, depth)):
                return False, f"string escapes at {b!r}, color {j}", {}
    return True, None, {"set": members}


def _check_thm35r(realization, depth, word):
    word = tuple(word)
    lhs = demazure_binf(realization, word, depth).members
    if not word:
        return True, None, {"set": lhs}
    shorter = demazure_binf(realization, word[1:], depth).members
    rhs = frozenset(_closure(realization.f_star, word[0], shorter, depth))
    if lhs != rhs:
        diff = lhs ^ rhs
        return False, f"sets differ at {sorted(map(repr, diff))[0]}", {}
    return True, None, {"set": lhs}


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
    depth <= depth - 2 and every pair of colors.
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
    ok, witness, sets_full = handler(realization, depth, word)
    if not ok:
        return CheckReport(statement, params, False, witness)
    ok_shallow, witness_shallow, sets_shallow = handler(realization, depth - 1, word)
    if not ok_shallow:
        return CheckReport(statement, params, False, f"fails at depth {depth - 1}: {witness_shallow}")
    for name, full in sets_full.items():
        if _restrict(full, depth - 1) != sets_shallow.get(name):
            return CheckReport(
                statement, params, False,
                f"depth {depth} result does not restrict to depth {depth - 1} ({name})",
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
    """The membership preimage of the truncated infinity-side set equals the
    truncation of the highest-weight-side set."""
    word = tuple(word)
    params = {
        "type": crystal.cartan.type_label,
        "lambda": crystal.lam,
        "word": word,
        "depth": depth,
    }
    real = crystal.realization
    preimage = {
        BLambdaElement(b, crystal.lam)
        for b in demazure_binf(real, word, depth).members
        if crystal.contains_base(b)
    }
    truncated = {
        x for x in demazure_blambda(crystal, word).members if x.depth <= depth
    }
    if preimage != truncated:
        diff = preimage ^ truncated
        return CheckReport("IOTA", params, False, f"sets differ at {sorted(map(repr, diff))[0]}")
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
        base = demazure_sum(demazure_blambda(crystal, w2.canonical_word))
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
