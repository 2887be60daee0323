"""One repetition of a benchmark workload, run in a fresh interpreter.

`b_inf`, `b_lambda`, `cartan_matrix` and `enumerate_weyl` are process-wide
caches, and the caches on each realization are never cleared, so a second
repetition in the same process would time cache hits only.  `run.py` starts
this script once per repetition and reads the JSON object it prints last.

    python3 benchmarks/worker.py --workload ladder --seed 1 --mode run

Modes: `setup` times set-up only, `run` times set-up and the workload, and
`trace` runs the workload with every layer in `layers.LAYERS` wrapped.
Exit code 3 means the package could not be loaded from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Totals and order-independent output digests (sha256 of the sorted report
# lines, or of the JSON text) produced by the code the benchmark was written
# against.  Visiting order is permuted by the seed; none of these depends on it.
VERIFY_GRID_CHECKS = 2565
VERIFY_GRID_DIGEST = "f86d371559aea45d3f7064b4b449753a3c91ce7044f447b03b903e02e0826a07"

LADDER = (("A3", (3, 3, 3)), ("G2", (3, 3)))
LADDER_PAYLOAD_DIGESTS = {
    "A3": "10a2671f8c0fe36ac841dabcd73d8b3896ed6c26f90d44a2b844b1775862ca5f",
    "G2": "36ce4bfcbb059be6dc8b62a6c77fbc153f4ced2aa48e838eed841c1d1f449bdd",
}

BINF_DEEP = (("A3", 12), ("G2", 12), ("B2", 14))
BINF_DEEP_SUITES = ("psi", "star", "lem31", "thm32", "cor33", "lem34", "thm35", "thm35r", "p3")
BINF_DEEP_CHECKS = 157
BINF_DEEP_DIGEST = "1e73828f0d9be8f7a1950b70eca2b17b000595f17d570015a6fd07dbc0a9599b"

# Times are reported as they would read on a machine where the reference
# loop takes NOMINAL_REFERENCE_S; the loop is timed every SAMPLE_EVERY_S.
NOMINAL_REFERENCE_S = 0.025
SAMPLE_EVERY_S = 0.25


def reference_loop(n: int = 100_000) -> int:
    """Fixed pure-Python work of the program's kind: tuple keys, dict lookups
    and small integer arithmetic.  It never changes, so its time measures the
    machine's speed at the moment, not the program's."""
    table: dict[tuple, tuple] = {}
    acc = 0
    for k in range(n):
        key = (k % 61, k % 7, k & 3)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = tuple(x * 3 + 1 for x in key)
        acc += hit[0] - hit[2]
    return acc


class Meter:
    """Times work, and the machine's speed while it runs.

    The speed of a shared machine swings by up to a factor of two within
    seconds.  While the meter is active, a timer signal interrupts the work
    every SAMPLE_EVERY_S and times the reference loop.  Each stretch of work
    between two reference runs is scaled by NOMINAL_REFERENCE_S over the mean
    of those two reference times, and the reference runs themselves are left
    out of every measured time.  With `sample_every` None only the start and
    the end are sampled, so no signal lands inside traced calls.
    """

    def __init__(self, sample_every: float | None = SAMPLE_EVERY_S):
        self.sample_every = sample_every
        self.marks: list[tuple[float, float, float]] = []  # start, end, seconds
        self.windows: list[tuple[str, float, float]] = []
        self._sampling = False

    def _mark(self, *_signal_args) -> None:
        if self._sampling:  # a slow reference run outlasted the interval
            return
        self._sampling = True
        gc.disable()  # the heap the workload left must not slow the loop
        try:
            start = perf_counter()
            reference_loop()
            end = perf_counter()
        finally:
            gc.enable()
            self._sampling = False
        self.marks.append((start, end, end - start))

    def __enter__(self) -> Meter:
        self._mark()
        if self.sample_every:
            signal.signal(signal.SIGALRM, self._mark)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()

    @contextlib.contextmanager
    def window(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.windows.append((name, start, perf_counter()))

    def seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Raw and scaled work seconds per window name."""
        raw: dict[str, float] = {}
        scaled: dict[str, float] = {}
        for name, start, end in self.windows:
            raw.setdefault(name, 0.0)
            scaled.setdefault(name, 0.0)
            for (_, gap_start, before), (gap_end, _, after) in zip(self.marks, self.marks[1:]):
                overlap = min(end, gap_end) - max(start, gap_start)
                if overlap > 0:
                    raw[name] += overlap
                    scaled[name] += overlap * 2 * NOMINAL_REFERENCE_S / (before + after)
        return raw, scaled


class Checks:
    """Answer checks; each failed one counts once against `attempted`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def reports(self, lines: list[str]) -> None:
        for line in lines:
            self.expect(line.startswith("[PASS] "), line)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_cases(cli, checks, cases, suites, expected_checks: int, expected_digest: str) -> None:
    """One `verify` call per (type, depth) case over the given suites; the
    calls together make the reports of one call over all the cases."""
    lines, passed, total = [], 0, 0
    for type_label, depth in cases:
        argv = ["verify", "--suite", ",".join(suites), "--type", type_label]
        if depth is not None:
            argv += ["--depth", str(depth)]
        code, out = run_cli(cli, argv)
        checks.expect(code == 0, f"{' '.join(argv)} exited with {code}")
        more = out.splitlines()
        done, _, of = (more.pop() if more else "").partition(" ")[0].partition("/")
        checks.expect(done.isdigit() and of.isdigit(), f"{' '.join(argv)}: no summary line")
        lines += more
        passed += int(done) if done.isdigit() else 0
        total += int(of) if of.isdigit() else 0
    checks.reports(lines)
    expected = f"{expected_checks}/{expected_checks}"
    checks.expect(f"{passed}/{total}" == expected, f"{passed}/{total} checks passed, not {expected}")
    checks.expect(sha256("\n".join(sorted(lines))) == expected_digest, "verify output digest")


def verify_grid(dc, cli, rng, checks, meter) -> None:
    """`demazure-crystals verify`: every default suite on every grid type."""
    suites = list(cli.DEFAULT_SUITES)
    cases = [(type_label, None) for type_label in dc.GRID_TYPES]
    rng.shuffle(suites)
    rng.shuffle(cases)
    verify_cases(cli, checks, cases, suites, VERIFY_GRID_CHECKS, VERIFY_GRID_DIGEST)


def ladder(dc, cli, rng, checks, meter) -> None:
    """Weights beyond the grid: cold generation, EQ4 on every reduced word of
    w0, the JSON render, and the dimension and character oracles."""
    weights = list(LADDER)
    rng.shuffle(weights)
    for type_label, lam in weights:
        crystal = dc.b_lambda(type_label, lam)
        cartan = crystal.cartan
        with meter.window("generate"):
            elements = crystal.generate()
        group = dc.enumerate_weyl(cartan)
        words = sorted(group.reduced_words(group.longest))
        rng.shuffle(words)
        with meter.window("demazure"):
            reports = [dc.refined_formula_check(crystal, word) for word in words]
        for word, report in zip(words, reports):
            checks.expect(
                report.passed and report.details.get("size") == len(elements),
                f"EQ4 {type_label} {lam} word {word}: {report.witness}",
            )
        lam_text = ",".join(map(str, lam))
        with meter.window("render"):
            code, out = run_cli(
                cli, ["crystal", "--type", type_label, "--lambda", lam_text, "--format", "json"]
            )
        checks.expect(code == 0, f"crystal {type_label} {lam_text} exited with {code}")
        checks.expect(
            sha256(out) == LADDER_PAYLOAD_DIGESTS[type_label],
            f"crystal {type_label} {lam_text} JSON digest",
        )
        with meter.window("oracle"):
            dim = dc.weyl_dim(cartan, lam)
            character = dc.freudenthal_character(cartan, lam)
            crystal_character = dc.char_map(crystal, dc.FormalSum.from_elements(elements))
            demazure_character = dc.apply_demazure_word(
                cartan, min(words), dc.WeightPolynomial.monomial(lam)
            )
        checks.expect(len(elements) == dim, f"{type_label} {lam}: {len(elements)} elements, weyl_dim {dim}")
        checks.expect(crystal_character == character, f"{type_label} {lam}: char_map differs from Freudenthal")
        checks.expect(demazure_character == character, f"{type_label} {lam}: w0 Demazure character differs")


def binf_deep(dc, cli, rng, checks, meter) -> None:
    """The nine infinity-crystal suites at depths beyond the grid's."""
    suites = list(BINF_DEEP_SUITES)
    cases = list(BINF_DEEP)
    rng.shuffle(suites)
    rng.shuffle(cases)
    verify_cases(cli, checks, cases, suites, BINF_DEEP_CHECKS, BINF_DEEP_DIGEST)


WORKLOADS = {"verify-grid": verify_grid, "ladder": ladder, "binf-deep": binf_deep}
PHASES = ("generate", "demazure", "render", "oracle")


def setup_types(workload: str, dc) -> tuple[str, ...]:
    if workload == "ladder":
        return tuple(t for t, _ in LADDER)
    if workload == "binf-deep":
        return tuple(t for t, _ in BINF_DEEP)
    return tuple(dc.GRID_TYPES)


def load():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, SRC)
    import demazure_crystals as dc
    import demazure_crystals.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(dc.__file__))) != SRC:
        raise ImportError(f"demazure_crystals loaded from {dc.__file__}, not {SRC}")
    return dc, cli


def write_spans(spans: list[list], path: str) -> None:
    """Spans as rows of [name index, start, end, parent row], times in seconds
    from the first span's start; parent -1 marks a root."""
    names: dict[str, int] = {}
    t0 = spans[0][1] if spans else 0.0
    rows = [
        [names.setdefault(name, len(names)), start - t0, end - t0, parent]
        for name, start, end, parent in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": list(names), "spans": rows}, handle, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spans-out", help="trace mode: write the recorded spans here")
    args = parser.parse_args(argv)

    tracer = None
    checks = Checks()
    meter = Meter(None if args.mode == "trace" else SAMPLE_EVERY_S)
    with meter:
        with meter.window("setup_s"):
            try:
                dc, cli = load()
            except ImportError as exc:
                print(f"worker: cannot load demazure_crystals: {exc}", file=sys.stderr)
                return 3
            if args.mode == "trace":
                import layers

                tracer = layers.Tracer()
                layers.install(tracer)
            for type_label in setup_types(args.workload, dc):
                dc.enumerate_weyl(dc.cartan_matrix(type_label))
        if args.mode != "setup":
            with meter.window("wall_s"):
                try:
                    WORKLOADS[args.workload](dc, cli, random.Random(args.seed), checks, meter)
                except Exception:
                    checks.expect(False, traceback.format_exc())
    raw, scaled = meter.seconds()
    result = {
        "setup_s": scaled["setup_s"],
        "wall_s": scaled.get("wall_s"),
        "phases": {name: scaled[name] for name in PHASES if name in scaled},
        "raw": raw,
        "references": len(meter.marks),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["scale"] = scaled["wall_s"] / raw["wall_s"]
        result["layers"] = tracer.metrics()
        result["counts"] = tracer.counts()
        if args.spans_out:
            write_spans(tracer.spans, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
