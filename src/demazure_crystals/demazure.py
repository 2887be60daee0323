"""Demazure subsets of the highest-weight and infinity crystals, the additive
Demazure operator on formal sums, and executable checks of the structural
statements behind the refined character formula.

Words are stored in application order: the first letter acts first.  The
recursive construction closes under lowering along the letters in that
order, and the operator chain applies the matching operators in the same
order, so both agree with the usual indexing in which the last letter of a
reduced expression is applied last.

On B(lambda) both act one i-string at a time through the crystal's string
index: see demazure_operator and _f_closure_blambda.  On B(inf) every
statement about Demazure sets reads only realization.table(depth) and
compares ids; PSI and STAR check one operator each, so they call it.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .cartan import CartanData, enumerate_weyl, WeylElement
from .core import ElementaryCrystal, FormalSum, TensorCrystal
from .binf import BInfRealization, BInfTable
from .blambda import BLambdaCrystal


class CheckReport:
    """The outcome of one check: a failure always names a witness, and each
    report gets its own details dict."""

    def __init__(self, statement: str, params: dict, passed: bool,
                 witness: str | None = None, details: dict | None = None):
        self.statement = statement
        self.params = params
        self.passed = passed
        self.witness = "unspecified failure" if witness is None and not passed else witness
        self.details = {} if details is None else details

    def __bool__(self) -> bool:
        return self.passed


def _require_reduced(cartan: CartanData, word) -> None:
    group = enumerate_weyl(cartan)
    if not group.is_reduced(tuple(word)):
        raise ValueError(f"word {tuple(word)} is not reduced")


def _first(elements) -> str:
    """The least repr among elements: the one a failure witness names."""
    return min(map(repr, elements))


def _differ(lhs, rhs, table: BInfTable | None = None) -> str | None:
    """The witness of two unequal sets, of elements or of table's ids, else None."""
    if lhs != rhs:
        diff = lhs ^ rhs
        return f"sets differ at {_first(diff if table is None else _elements(table, diff))}"


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


def _walk(step, cut, members):
    """Union of the step-strings (step a table list) of the member ids: a walk
    ends at an id at or past the cut, the first id of the query's depth, or
    at an id already reached, whose tail is in already."""
    out = set()
    for x in members:
        while x not in out:
            out.add(x)
            if x >= cut:
                break
            x = step[x]
    return out


def _elements(table: BInfTable, ids) -> frozenset:
    return frozenset(map(table.elements.__getitem__, ids))


def _prefix_closure(cartan, cache, word, close) -> frozenset:
    """The Demazure set of a reduced word, memoized in cache by prefix: cache
    starts with the empty word's set, the highest element, and a longer word
    gets close(last letter, set of the word without it)."""
    if word not in cache:
        _require_reduced(cartan, word)
        cache[word] = frozenset(close(word[-1], _prefix_closure(cartan, cache, word[:-1], close)))
    return cache[word]


def demazure_blambda(crystal: BLambdaCrystal, word) -> frozenset:
    """Recursive lowering closure along a reduced word, letters left to right."""
    close = partial(_f_closure_blambda, crystal)
    return _prefix_closure(crystal.cartan, crystal._demazure_cache, tuple(word), close)


def _demazure_ids(realization: BInfRealization, word, depth: int) -> frozenset:
    """demazure_binf as ids of realization.table(depth), memoized per depth."""
    table = realization.table(depth)
    steps, cut = table.f, table.starts[depth]
    cache = realization._demazure_cache.setdefault(depth, {(): frozenset({0})})
    return _prefix_closure(realization.cartan, cache, tuple(word), lambda i, x: _walk(steps[i], cut, x))


def demazure_binf(realization: BInfRealization, word, depth: int) -> frozenset:
    """Members of the recursive closure with depth at most depth; exact since
    each lowering raises depth by one.  Beyond MAX_DEPTH: CapacityError."""
    return _elements(realization.table(depth), _demazure_ids(realization, word, depth))


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


def _bases(table, depth):
    """The ids of depth <= max(depth - 2, 0), in id order: (depth, coordinates)."""
    return range(table.starts[max(depth - 1, 1)])


def _depth_order(b):
    """Generation's order, (depth, coordinates): no element is peeled to sort."""
    return sum(b), b


def _check_psi(realization, depth, word):
    cartan = realization.cartan
    gen = realization.generate(depth)
    seen = {}
    for i in cartan.colors:
        pair = realization.psi(i, realization.highest)
        if pair != (realization.highest, 0):
            return f"highest element maps to {pair!r} at color {i}", None
    # the tensor rule on split pairs, one product per color
    tensors = {
        i: TensorCrystal(cartan, (realization, ElementaryCrystal(cartan, i)))
        for i in cartan.colors
    }
    for b in sorted(gen, key=_depth_order):
        for i in cartan.colors:
            bp, bpp = realization.psi(i, b)
            key = (i, bp, bpp)
            if key in seen and seen[key] != b:
                return f"psi_{i} collision between {seen[key]!r} and {b!r}", None
            seen[key] = b
            # starred lowering shows up on the split-off factor
            sp, spp = realization.psi(i, realization.f_star(i, b))
            if (sp, spp) != (bp, bpp - 1):
                return f"starred lowering mismatch at {b!r}, color {i}", None
            # commutation with the tensor rule on the split pair
            tensor = tensors[i]
            pair = (bp, bpp)
            tf = tensor.f(i, pair)
            fp = realization.psi(i, realization.f(i, b))
            if tf != fp:
                return f"lowering does not commute at {b!r}, color {i}", None
            te = tensor.e(i, pair)
            be = realization.e(i, b)
            if (te is None) != (be is None):
                return f"raising zero mismatch at {b!r}, color {i}", None
            if be is not None and te != realization.psi(i, be):
                return f"raising does not commute at {b!r}, color {i}", None
    return None, gen


def _check_lem31(realization, depth, word):
    colors, table = realization.cartan.colors, realization.table(depth)
    cut = table.starts[depth]
    for x in _bases(table, depth):
        for i, j in product(colors, colors):
            f, f_star = table.f[i], table.f_star[j]
            lhs = _walk(f, cut, _walk(f_star, cut, (x,)))
            rhs = _walk(f_star, cut, _walk(f, cut, (x,)))
            if lhs != rhs:
                return f"unions differ at base {table.elements[x]!r}, colors ({i},{j})", None
    return None, None


def _check_thm32(realization, depth, word):
    table = realization.table(depth)
    lhs = _demazure_ids(realization, word, depth)
    rhs = {0}
    for letter in reversed(word):
        rhs = _walk(table.f_star[letter], table.starts[depth], rhs)
    return _differ(lhs, rhs, table), _elements(table, lhs)


def _check_cor33(realization, depth, word):
    table = realization.table(depth)
    starred = {table.star[x] for x in _demazure_ids(realization, word, depth)}
    inverse = _demazure_ids(realization, word[::-1], depth)
    return _differ(starred, inverse, table), _elements(table, starred)


def _check_lem34(realization, depth, word):
    colors, table = realization.cartan.colors, realization.table(depth)
    cut = table.starts[depth]
    for x in _bases(table, depth):
        for i, j in product(colors, colors):
            e, f_star = table.e[i], table.f_star[j]
            union = _walk(f_star, cut, (x,))
            lhs = {e[y] for y in union}
            lhs.discard(-1)  # e_i is zero there
            rhs = union if e[x] < 0 else union | _walk(f_star, cut, (e[x],))
            if not lhs <= rhs:
                extra = _first(_elements(table, lhs - rhs))
                return f"extra element {extra} at base {table.elements[x]!r}, colors ({i},{j})", None
    return None, None


def _check_thm35(realization, depth, word):
    table = realization.table(depth)
    members = _demazure_ids(realization, word, depth)
    for x in sorted(members):
        for i, e in table.e.items():
            if e[x] >= 0 and e[x] not in members:
                return f"raising escapes at {table.elements[x]!r}, color {i}", None
    return None, _elements(table, members)


def _check_p3(realization, depth, word):
    table = realization.table(depth)
    members = _demazure_ids(realization, word, depth)
    cut = table.starts[depth]
    # f takes a member of the query's depth out of the set: only ids below the cut
    for x in [x for x in range(cut) if x in members]:
        for j, f in table.f.items():
            if f[x] in members and not _walk(f, cut, (f[x],)) <= members:
                return f"string escapes at {table.elements[x]!r}, color {j}", None
    return None, _elements(table, members)


def _check_thm35r(realization, depth, word):
    table = realization.table(depth)
    lhs = rhs = _demazure_ids(realization, word, depth)
    if word:
        rhs = _walk(table.f_star[word[0]], table.starts[depth], _demazure_ids(realization, word[1:], depth))
    return _differ(lhs, rhs, table), _elements(table, lhs)


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
    word = None if word is None else tuple(word)
    params = {"type": realization.cartan.type_label, "depth": depth, "word": word}
    if statement in WORD_STATEMENTS and word is None:
        raise ValueError(f"statement {statement} needs a word")
    if statement not in WORD_STATEMENTS and word is not None:
        raise ValueError(f"statement {statement} takes no word")
    witness, full = handler(realization, depth, word)
    if witness is not None:
        return CheckReport(statement, params, False, witness)
    witness, shallow = handler(realization, depth - 1, word)
    if witness is not None:
        return CheckReport(statement, params, False, f"fails at depth {depth - 1}: {witness}")
    if full is not None and {b for b in full if sum(b) < depth} != shallow:
        return CheckReport(
            statement, params, False,
            f"depth {depth} result does not restrict to depth {depth - 1}",
        )
    return CheckReport(statement, params, True)


def star_involution_check(realization: BInfRealization, depth: int) -> CheckReport:
    """The star map on the elements of depth <= depth is a weight-preserving
    involution that twists lowering into starred lowering."""
    params = {"type": realization.cartan.type_label, "depth": depth}
    for b in sorted(realization.generate(depth), key=_depth_order):
        sb = realization.star(b)
        if realization.star(sb) != b:
            return CheckReport("STAR", params, False, f"involution fails at {b!r}")
        if realization.wt(sb) != realization.wt(b):
            return CheckReport("STAR", params, False, f"weight not preserved at {b!r}")
        if sum(b) < depth:
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
    truncated = {x for x in demazure_blambda(crystal, word) if sum(x) <= depth}
    witness = _differ(preimage, truncated)
    return CheckReport("IOTA", params, witness is None, witness)


_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def braid_order(cartan: CartanData, i: int, j: int) -> int:
    """The order m_ij of s_i s_j, for two distinct colors."""
    if cartan.check_color(i) == cartan.check_color(j):
        raise ValueError("a braid relation needs two distinct colors")
    return _BRAID_ORDER[cartan.matrix[i - 1][j - 1] * cartan.matrix[j - 1][i - 1]]


def braid_witness_search(crystal: BLambdaCrystal, i: int, j: int) -> CheckReport:
    """Search basis elements where the alternating operator products differ,
    and confirm equality on every length-additive Demazure sum.

    The witness list is informational: the operators are not expected to
    satisfy the braid relations on single elements.  The verdict reflects
    only the Demazure-sum instances.
    """
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
