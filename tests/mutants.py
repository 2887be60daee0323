"""Mutation record: every named mutant weakens one rule, and tier-1 must fail on it.

    python3 tests/mutants.py

The checkout is copied once to a temporary directory.  A mutant is a (file,
old text, new text) triple; each old text must occur exactly once in its
pristine file, so a refactor that moves the text fails here loudly instead of
leaving a mutant that changes nothing.  The unmutated copy runs tier-1 first
and must pass.  Then each mutant in turn is applied to the copy alone, tier-1
runs with -x -q, and the file is restored.  A mutant is killed when tier-1
fails on it (a timeout counts as killed).  The script prints the killed and
the surviving mutants and exits 1 on any survivor, 2 on a mutant whose old
text does not occur exactly once or on a failing unmutated run.  It is not
named test_*, so pytest does not collect it; it needs only the standard
library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600
ENV = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")

BINF = "src/demazure_crystals/binf.py"
BLAMBDA = "src/demazure_crystals/blambda.py"
CARTAN = "src/demazure_crystals/cartan.py"
CLI = "src/demazure_crystals/cli.py"
DEMAZURE = "src/demazure_crystals/demazure.py"

# name -> (file, old text, new text)
MUTANTS = {
    "peel-skips-its-first-color": (
        BINF,
        "            for j in self.cartan.colors:\n",
        "            for j in self.cartan.colors[1:]:\n",
    ),
    "star-without-the-element-check": (
        BINF,
        "            _check_element(b)\n            out = _star(",
        "            out = _star(",
    ),
    "peel-without-the-element-check": (
        BINF,
        "        if (out := cache.get(b)) is None:\n            _check_element(b)\n",
        "        out = cache.get(b)\n",
    ),
    "f-without-the-entry-color-check": (
        BINF,
        "self._signature(self.cartan.check_color(i), b)[1]",
        "self._signature(i, b)[1]",
    ),
    "demazure-memo-not-keyed-by-depth": (
        DEMAZURE,
        "table.demazure.setdefault(depth, {(): frozenset({0})})",
        "table.demazure.setdefault(0, {(): frozenset({0})})",
    ),
    "star-lowers-through-the-instance-f": (
        BINF,
        "partial(BInfRealization.f, self)",
        "self.f",
    ),
    "string-index-read-before-the-color-check": (
        BLAMBDA,
        "if self.cartan.check_color(i) not in self._string_index:",
        "if i not in self._string_index:",
    ),
    "star-replay-color-one-position-off": (
        BINF,
        "f(block[p % len(block)], lower)",
        "f(block[(p + 1) % len(block)], lower)",
    ),
    "generation-leaves-the-next-layer-unsorted": (
        BINF,
        "enumerate(sorted(set().union(*images.values())), len(elements))",
        "enumerate(set().union(*images.values()), len(elements))",
    ),
    "e-inverse-writes-the-wrong-id": (
        BINF,
        "                    inverse[y] = x\n",
        "                    inverse[y] = x + 1\n",
    ),
    "walk-cut-past-the-first-id-of-the-depth": (
        DEMAZURE,
        "            if x >= cut:\n",
        "            if x > cut:\n",
    ),
    "lem31-bases-one-layer-short": (
        DEMAZURE,
        "for x in range(table.starts[max(depth - 1, 0)]):  # every id of depth <= depth - 2",
        "for x in range(table.starts[max(depth - 2, 0)]):  # every id of depth <= depth - 2",
    ),
    "lem34-bases-one-layer-short": (
        DEMAZURE,
        "for x in range(table.starts[depth]):  # every id of depth <= depth - 1",
        "for x in range(table.starts[max(depth - 1, 0)]):  # every id of depth <= depth - 1",
    ),
    "psi-phi-without-the-weight": (
        DEMAZURE,
        "phi = phis[y] = _top(e, y)[1] + table.wt[y][i - 1]",
        "phi = phis[y] = _top(e, y)[1]",
    ),
    "psi-phi-without-the-walk": (
        DEMAZURE,
        "phi = phis[y] = _top(e, y)[1] + table.wt[y][i - 1]",
        "phi = phis[y] = table.wt[y][i - 1]",
    ),
    "star-weight-check-off": (
        DEMAZURE,
        "        if table.wt[star] != table.wt[x]:",
        "        if False:",
    ),
    "f-star-without-the-inner-star": (
        BINF,
        "star[column[star[x]]]",
        "star[column[x]]",
    ),
    "f-star-on-the-new-layer": (
        BINF,
        "for x in layer]",
        "for x in range(starts[-2], starts[-1])]",
    ),
    "wt-column-conflict-raise-off": (
        BINF,
        "                    elif wt[y] != w:\n",
        "                    elif False:\n",
    ),
    "reduced-words-without-the-letter-check": (
        CARTAN,
        "        for letter in w:  # before the memo, where 1.0 and True hit 1\n"
        "            self.cartan.check_color(letter)\n",
        "",
    ),
    "is-reduced-at-most-the-length": (
        CARTAN,
        "return len(self.element_of_word(word)) == len(word)",
        "return len(self.element_of_word(word)) <= len(word)",
    ),
    "signature-ignores-ties": (
        BINF,
        "                elif term == best:\n                    f_position = p\n",
        "",
    ),
    "phi-cut-one-step-early": (
        BLAMBDA,
        "if eps + pairing[i - 1] > 0 else None",
        "if eps + pairing[i - 1] > 1 else None",
    ),
    "phi-cut-one-step-late": (
        BLAMBDA,
        "if eps + pairing[i - 1] > 0 else None",
        "if eps + pairing[i - 1] >= 0 else None",
    ),
    "weyl-dimension-guard-off": (
        BLAMBDA,
        "                            if len(out) > size:\n",
        "                            if False:\n",
    ),
    "normality-without-the-pairing-half": (
        BLAMBDA,
        "            if heads[head] != len(chain) - 1:\n",
        "            if False:\n",
    ),
    "heads-taken-where-eps-is-at-most-one": (
        BLAMBDA,
        "                        if not eps:\n",
        "                        if eps <= 1:\n",
    ),
    "index-weight-reads-k-once": (
        BLAMBDA,
        "len(strings[sid]) - 1 - 2 * k",
        "len(strings[sid]) - 1 - 1 * k",
    ),
    "place-map-answers-none-for-a-nonmember": (
        BLAMBDA,
        '        raise ValueError(f"{x!r} is not an element of {self.crystal}")\n',
        "        return None\n",
    ),
    "demazure-operator-without-its-second-step": (
        DEMAZURE,
        "        delta[len(delta) - 1 - k] -= coeff\n",
        "",
    ),
    "first-string-window-one-short": (
        DEMAZURE,
        "strings[n][k - 1:k + 2]",
        "strings[n][k - 1:k + 1]",
    ),
    "render-phi-read-as-k": (
        CLI,
        '"phi": [len(s) - 1 - k for _, s, k in on]',
        '"phi": [k for _, s, k in on]',
    ),
    "render-edge-to-its-source": (
        CLI,
        '"to": names[s[k + 1]]',
        '"to": names[s[k]]',
    ),
    "render-drops-the-item-separator": (
        CLI,
        '            sep = ","\n',
        '            sep = ""\n',
    ),
}


def _ignore(directory, names):
    return {n for n in names if n in {".git", ".bench_results", "__pycache__", ".pytest_cache", ".hypothesis"}
            or n.endswith(".egg-info")}


def _tier1(copy: str) -> str | None:
    """None when tier-1 passes in the copy, else its first failure line."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    lines = proc.stdout.splitlines()
    return next((line for line in lines if line.startswith(("FAILED", "ERROR"))), f"exit code {proc.returncode}")


def _imports_the_copy(copy: str) -> bool:
    cmd = [sys.executable, "-c", "import demazure_crystals; print(demazure_crystals.__file__)"]
    out = subprocess.run(cmd, cwd=copy, env=ENV, capture_output=True, text=True).stdout.strip()
    return os.path.realpath(out).startswith(os.path.realpath(copy) + os.sep)


def main() -> int:
    bad = []
    for name, (path, old, _) in MUTANTS.items():
        with open(os.path.join(ROOT, path)) as source:
            count = source.read().count(old)
        if count != 1:
            bad.append(f"{name}: its old text occurs {count} times in {path}")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=_ignore)
        if not _imports_the_copy(copy):
            print("the copy does not import its own package", file=sys.stderr)
            return 2
        if (failure := _tier1(copy)) is not None:
            print(f"tier-1 fails on the unmutated copy: {failure}", file=sys.stderr)
            return 2
        killed, survived = [], []
        for name, (path, old, new) in MUTANTS.items():
            target = os.path.join(copy, path)
            with open(target) as source:
                pristine = source.read()
            with open(target, "w") as source:
                source.write(pristine.replace(old, new))
            start = time.monotonic()
            try:
                failure = _tier1(copy)
            finally:
                with open(target, "w") as source:
                    source.write(pristine)
            (survived if failure is None else killed).append(name)
            how = "SURVIVED" if failure is None else f"killed by {failure[:160]}"
            print(f"{name} ({time.monotonic() - start:.0f} s): {how}", flush=True)
    print(f"{len(killed)}/{len(MUTANTS)} killed" + (f"; survived: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
