"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The verification grid G fixes, per type, the box of dominant weights:
A1 up to 4; A1xA1, A2, B2 coordinates up to 2; G2 and A3 coordinates up
to 1.  Truncated statements run at depth 6, G2 at depth 4, and every
tolerance is exact equality.
"""

from itertools import product

from demazure_crystals import (
    FormalSum,
    GRID_TYPES,
    Elementary,
    ElementaryCrystal,
    TensorCrystal,
    TensorWord,
    algebraic_demazure,
    apply_demazure_word,
    WeightPolynomial,
    b_inf,
    b_lambda,
    braid_witness_search,
    cartan_matrix,
    char_map,
    demazure_binf,
    demazure_blambda,
    demazure_operator,
    enumerate_weyl,
    freudenthal_character,
    grid_lambdas,
    refined_formula_check,
    star_depth,
    star_involution_check,
    string_property_check,
    structural_check,
    w_sub,
    weyl_dim,
    word_independence_check,
)


def _verdict(number: int, name: str, failures: list, checked: int) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({checked} checks)")
    assert not failures, f"criterion {number} ({name}): {failures[:3]}"


def _grid_crystals():
    for type_label in GRID_TYPES:
        for lam in grid_lambdas(type_label):
            yield b_lambda(type_label, lam)


def _short_words(type_label: str, max_length: int = 3):
    group = enumerate_weyl(cartan_matrix(type_label))
    return [w.canonical_word for w in group if w.length <= max_length]


def test_criterion_01_refined_demazure_formula():
    failures, checked = [], 0
    for crystal in _grid_crystals():
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            for word in group.reduced_words(w):
                checked += 1
                report = refined_formula_check(crystal, word)
                if not report.passed:
                    failures.append(
                        (crystal.cartan.type_label, crystal.lam, word, report.witness)
                    )
    _verdict(1, "refined Demazure formula", failures, checked)


def test_criterion_02_full_crystal_recovery():
    failures, checked = [], 0
    for crystal in _grid_crystals():
        data = crystal.cartan
        group = enumerate_weyl(data)
        word = min(group.reduced_words(group.longest))
        members = demazure_blambda(crystal, word)
        checked += 2
        if len(members) != weyl_dim(data, crystal.lam):
            failures.append((data.type_label, crystal.lam, "size"))
        character = char_map(crystal, FormalSum.from_elements(members))
        if character != freudenthal_character(data, crystal.lam):
            failures.append((data.type_label, crystal.lam, "character"))
    _verdict(2, "full-crystal recovery", failures, checked)


def test_criterion_03_string_property():
    failures, checked = [], 0
    for crystal in _grid_crystals():
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            for word in group.reduced_words(w):
                checked += 1
                report = string_property_check(crystal, word)
                if not report.passed:
                    failures.append(
                        (crystal.cartan.type_label, crystal.lam, word, report.witness)
                    )
    _verdict(3, "string property with trichotomy", failures, checked)


def test_criterion_04_reduced_word_independence():
    failures, checked = [], 0
    for crystal in _grid_crystals():
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            checked += 1
            report = word_independence_check(crystal, w)
            if not report.passed:
                failures.append(
                    (crystal.cartan.type_label, crystal.lam, w.canonical_word, report.witness)
                )
    _verdict(4, "reduced-word independence", failures, checked)


def test_criterion_05_star_suite():
    failures, checked = [], 0
    for type_label in GRID_TYPES:
        depth = star_depth(type_label)
        real = b_inf(type_label)
        checked += 1
        report = star_involution_check(real, depth)
        if not report.passed:
            failures.append((type_label, "STAR", report.witness))
        for word in _short_words(type_label):
            for statement in ("COR33", "THM32", "THM35", "P3", "THM35R"):
                checked += 1
                report = structural_check(statement, real, depth=depth, word=word)
                if not report.passed:
                    failures.append((type_label, statement, word, report.witness))
        for statement in ("LEM31", "LEM34"):
            checked += 1
            report = structural_check(statement, real, depth=depth)
            if not report.passed:
                failures.append((type_label, statement, report.witness))
    _verdict(5, "star-operator suite", failures, checked)


def test_criterion_06_psi_suite():
    failures, checked = [], 0
    for type_label in GRID_TYPES:
        checked += 1
        report = structural_check("PSI", b_inf(type_label), depth=6)
        if not report.passed:
            failures.append((type_label, report.witness))
    _verdict(6, "embedding suite", failures, checked)


def test_criterion_07_crystal_axioms():
    failures, checked = [], 0
    # inverse property, weight shift, phi = eps + pairing, normality on B(lambda)
    for crystal in _grid_crystals():
        data = crystal.cartan
        for x in crystal.generate():
            for i in data.colors:
                checked += 1
                eps, phi = crystal.eps(i, x), crystal.phi(i, x)
                if phi != eps + crystal.wt(x)[i - 1]:
                    failures.append((data.type_label, crystal.lam, x, "statistics"))
                down = crystal.f(i, x)
                if down is not None:
                    if crystal.e(i, down) != x:
                        failures.append((data.type_label, crystal.lam, x, "inverse"))
                    if crystal.wt(down) != w_sub(crystal.wt(x), data.alpha(i)):
                        failures.append((data.type_label, crystal.lam, x, "weight shift"))
                up, raised = x, 0
                while (up := crystal.e(i, up)) is not None:
                    raised += 1
                if raised != eps:
                    failures.append((data.type_label, crystal.lam, x, "normal eps"))
                down, lowered = x, 0
                while (down := crystal.f(i, down)) is not None:
                    lowered += 1
                if lowered != phi:
                    failures.append((data.type_label, crystal.lam, x, "normal phi"))
    # the same axioms on the truncated infinity crystals
    for type_label in GRID_TYPES:
        real = b_inf(type_label)
        for b in real.generate(star_depth(type_label)):
            for i in real.cartan.colors:
                checked += 1
                if real.e(i, real.f(i, b)) != b:
                    failures.append((type_label, b, "inverse"))
                if real.wt(real.f(i, b)) != w_sub(real.wt(b), real.cartan.alpha(i)):
                    failures.append((type_label, b, "weight shift"))
                if real.phi(i, b) != real.eps(i, b) + real.wt(b)[i - 1]:
                    failures.append((type_label, b, "statistics"))
    # tensor associativity on length-3 elementary words
    levels = (-2, -1, 0, 1)
    for type_label in ("A2", "B2", "G2", "A3"):
        data = cartan_matrix(type_label)
        for colors in product(data.colors, repeat=3):
            singles = tuple(ElementaryCrystal(data, c) for c in colors)
            flat = TensorCrystal(data, singles)
            nested = TensorCrystal(data, (TensorCrystal(data, singles[:2]), singles[2]))
            for lv in product(levels, repeat=3):
                word = TensorWord(tuple(Elementary(c, n) for c, n in zip(colors, lv)))
                pair = TensorWord((TensorWord(word.parts[:2]), word.parts[2]))
                for i in data.colors:
                    checked += 1
                    down = nested.f(i, pair)
                    flat_down = flat.f(i, word)
                    if (down is None) != (flat_down is None):
                        failures.append((type_label, word, i, "assoc zero"))
                    elif down is not None and (
                        down.parts[0].parts + (down.parts[1],) != flat_down.parts
                    ):
                        failures.append((type_label, word, i, "assoc f"))
                    if nested.eps(i, pair) != flat.eps(i, word) or nested.phi(
                        i, pair
                    ) != flat.phi(i, word):
                        failures.append((type_label, word, i, "assoc stats"))
    _verdict(7, "crystal-axiom property suite", failures, checked)


def test_criterion_08_oracle_intertwining():
    failures, checked = [], 0
    for crystal in _grid_crystals():
        data = crystal.cartan
        for x in crystal.generate():
            for i in data.colors:
                checked += 1
                crystal_side = char_map(
                    crystal, demazure_operator(crystal, i, FormalSum.basis(x))
                )
                ring_side = algebraic_demazure(data, i, char_map(crystal, x))
                if crystal_side != ring_side:
                    failures.append((data.type_label, crystal.lam, x, i))
    for type_label in GRID_TYPES:
        data = cartan_matrix(type_label)
        group = enumerate_weyl(data)
        words = group.reduced_words(group.longest)
        for lam in grid_lambdas(type_label):
            target = freudenthal_character(data, lam)
            for word in words:
                checked += 1
                if apply_demazure_word(data, word, WeightPolynomial.monomial(lam)) != target:
                    failures.append((type_label, lam, word, "longest-word chain"))
    _verdict(8, "oracle intertwining", failures, checked)


def test_criterion_09_rank_two_witness():
    failures, checked = [], 0
    data = cartan_matrix("A2")
    w0 = enumerate_weyl(data).longest
    for lam in grid_lambdas("A2"):
        checked += 1
        crystal = b_lambda("A2", lam)
        l1, l2 = lam
        x = crystal.highest
        for i, power in ((1, l1), (2, l1 + l2), (1, l2)):
            for _ in range(power):
                x = crystal.f(i, x)
                if x is None:
                    break
            if x is None:
                break
        if x is None:
            failures.append((lam, "vanished"))
            continue
        if any(crystal.f(i, x) is not None for i in data.colors):
            failures.append((lam, "not lowest"))
        if crystal.wt(x) != w0.apply(lam):
            failures.append((lam, "wrong weight"))
    _verdict(9, "rank-two lowest-element witness", failures, checked)


def test_criterion_10_truncation_stability(window_oracle):
    failures, checked = [], 0
    for type_label in GRID_TYPES:
        depth = star_depth(type_label)
        real = b_inf(type_label)
        checked += 1
        full = real.generate(depth)
        if real.generate(depth - 1) != frozenset(b for b in full if b.depth <= depth - 1):
            failures.append((type_label, "generate"))
        for word in _short_words(type_label):
            checked += 1
            wide = demazure_binf(real, word, depth)
            narrow = demazure_binf(real, word, depth - 1)
            if narrow != frozenset(b for b in wide if b.depth <= depth - 1):
                failures.append((type_label, word, "demazure"))
            checked += 1
            wide_star = {real.star(b) for b in wide}
            narrow_star = {real.star(b) for b in narrow}
            if narrow_star != {b for b in wide_star if b.depth <= depth - 1}:
                failures.append((type_label, word, "star image"))
        # the support-only rule agrees with a tensor word three zero blocks wider
        oracle = window_oracle(real)
        for b in real.generate(min(depth, 4)):
            for i in real.cartan.colors:
                checked += 1
                if (
                    real.f(i, b) != oracle.f(i, b)
                    or real.eps(i, b) != oracle.eps(i, b)
                    or real.phi(i, b) != oracle.phi(i, b)
                    or (real.eps(i, b) > 0 and real.e(i, b) != oracle.e(i, b))
                ):
                    failures.append((type_label, b, i, "tensor word"))
    _verdict(10, "truncation stability", failures, checked)


def test_criterion_11_braid_witness_report():
    failures, checked = [], 0
    details = []
    for type_label, lam in (("A2", (2, 2)), ("B2", (2, 2)), ("G2", (1, 1))):
        crystal = b_lambda(type_label, lam)
        data = crystal.cartan
        for i in data.colors:
            for j in data.colors:
                if i >= j:
                    continue
                checked += 1
                report = braid_witness_search(crystal, i, j)
                if not report.passed:
                    failures.append((type_label, lam, (i, j), report.witness))
                    continue
                if "witness_count" not in report.details or "sum_instances" not in report.details:
                    failures.append((type_label, lam, (i, j), "malformed report"))
                    continue
                details.append(
                    f"{type_label} {lam}: {report.details['witness_count']} "
                    f"single-element witnesses, {report.details['sum_instances']} sum instances"
                )
    for line in details:
        print(f"    braid report: {line}")
    _verdict(11, "braid-witness report", failures, checked)
