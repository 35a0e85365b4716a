"""The three workloads: seeded inputs, the measured call, and its check.

Each workload is a closed loop with one caller: the next operation starts
after the previous one has returned and been checked.  Inputs depend only on
the seed.  Operation kinds follow a fixed cycle, so every seed runs the same
mix; the seed orders each pass of the cycle and picks the words, strides and
shapes within each kind.  Word lengths follow a cycle of their own within each
kind's range, so every run also has the same mix of lengths.

`run` is the timed call and returns the program's output untouched; `check`
reads it through public output only (to_json_terms, the CLI's JSON, plain
return values) and compares it with a verdict the benchmark knows without
braidhom: the mod-P reference of oracle.py, or a fact fixed by construction.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CLI_ENV = dict(os.environ, PYTHONPATH="src")


def _word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A word with letters in +-[1, n-1] and both signs present."""
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        if min(letters) < 0 < max(letters):
            return letters


def _all_letters(n: int) -> tuple[int, ...]:
    return tuple(range(1, n)) + tuple(-i for i in range(1, n))


def _passes(rng: random.Random, cycle: tuple):
    """The cycle's items forever, each pass in a seeded order."""
    while True:
        yield from rng.sample(cycle, len(cycle))


class Workload:
    name = ""
    traced_ops = 0  # fixed operation count of a traced run

    def setup(self) -> float:
        """Import braidhom and warm what the workload keeps warm; seconds taken."""
        start = perf_counter()
        import braidhom

        self.bh = braidhom
        self.warm()
        return perf_counter() - start

    def warm(self):
        pass

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output) -> bool:
        raise NotImplementedError

    def run_traced(self, op, tracer):
        return self.run(op)


# ---------------------------------------------------------------------------
# rep-cold: one `braidhom rep` process per operation
# ---------------------------------------------------------------------------


class RepCold(Workload):
    """What a command-line user pays per call: interpreter, import, generator
    build, inversion of the letters used with negative sign, a short product
    and JSON output.  n = 7 operations are dominated by inversion."""

    name = "rep-cold"
    CYCLE = (5, 6, 7)
    LENGTH = (6, 12)
    INVERTED = 2
    traced_ops = 6

    def setup(self) -> float:
        # Nothing stays warm between calls; the set-up is the floor every call
        # pays, a fresh interpreter importing the command-line module.
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import braidhom.cli"], cwd=ROOT,
                       env=CLI_ENV, check=True)
        return perf_counter() - start

    def inputs(self, seed: int):
        rng = random.Random(f"rep-cold/{seed}")
        lengths = {n: _passes(rng, tuple(range(self.LENGTH[0], self.LENGTH[1] + 1)))
                   for n in self.CYCLE}
        for n in _passes(rng, self.CYCLE):
            yield n, self._word(rng, n, next(lengths[n]))

    @staticmethod
    def _word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
        """A word using every generator, exactly INVERTED of them with negative sign.

        A cold call builds each generator the word uses and inverts those it
        meets with negative sign; fixing both keeps operations of one n at
        about one cost, so the run's percentiles are steady.
        """
        negative = rng.sample(range(1, n), RepCold.INVERTED)
        letters = [-i if i in negative else i for i in range(1, n)]
        while len(letters) < length:
            i = rng.randint(1, n - 1)
            letters.append(rng.choice((1, -1)) * i if i in negative else i)
        rng.shuffle(letters)
        return tuple(letters)

    @staticmethod
    def argv(op) -> list[str]:
        n, letters = op
        return ["rep", "--n", str(n), "--m", "2", "--word=" + ",".join(map(str, letters))]

    def run(self, op):
        proc = subprocess.run([sys.executable, "-m", "braidhom.cli", *self.argv(op)],
                              cwd=ROOT, env=CLI_ENV, capture_output=True)
        return proc.returncode, proc.stdout

    def run_traced(self, op, tracer):
        """Run the call through cli_traced.py and graft its spans under the op.

        cli.spawn_s is the child's wall time less its import and cli.main:
        interpreter start-up and shut-down, plus writing the child's trace.
        """
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"cli-trace-{os.getpid()}.json"
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("cli_traced.py")),
                               str(trace_file), *self.argv(op)],
                              cwd=ROOT, env=CLI_ENV, capture_output=True)
        wall = perf_counter() - start
        child = json.loads(trace_file.read_text())
        trace_file.unlink()
        tracer.adopt(child)
        main_s = sum(end - begin for _, parent, _, name, begin, end, _ in child["spans"]
                     if name == "cli.main" and parent is None)
        extra = tracer.extra
        for key, value in (("cli.import_s", child["import_s"]),
                           ("cli.spawn_s", wall - child["import_s"] - main_s),
                           ("cli.stdout_bytes", len(proc.stdout))):
            extra[key] = extra.get(key, 0) + value
        return proc.returncode, proc.stdout

    def check(self, op, output) -> bool:
        code, stdout = output
        n, letters = op
        return code == 0 and oracle.cli_output_matches(n, 2, letters, stdout)


# ---------------------------------------------------------------------------
# words-warm: in-process word products with every cache filled
# ---------------------------------------------------------------------------


class WordsWarm(Workload):
    """Laurent mul/add inside linalg.mat_mul and nothing else: generators and
    inverses are built during set-up, so the timed phase never inverts."""

    name = "words-warm"
    # (n, m, shortest, longest): LKB words at n = 6 and n = 5 and a minority
    # of long reduced Burau words at n = 10.  Word cost grows steeply with
    # length and varies least at n = 6, so the median falls among the n = 6
    # words (narrow band) and the 90th percentile among the Burau words; the
    # cheaper n = 5 words sit below both.  Wide bands make a run's percentiles
    # depend on the seed more than on the program.
    CYCLE = ((6, 2, 18, 20), (6, 2, 18, 20), (6, 2, 18, 20), (5, 2, 16, 18), (10, 1, 96, 104))
    traced_ops = 5

    def warm(self):
        bh = self.bh
        for n, m in sorted({(n, m) for n, m, _, _ in self.CYCLE}):
            bh.evaluate_word(bh.BraidWord(n, _all_letters(n)), m)

    def inputs(self, seed: int):
        rng = random.Random(f"words-warm/{seed}")
        lengths = {kind: _passes(rng, tuple(range(kind[2], kind[3] + 1))) for kind in set(self.CYCLE)}
        for kind in _passes(rng, self.CYCLE):
            n, m, _, _ = kind
            yield n, m, _word(rng, n, next(lengths[kind]))

    def run(self, op):
        n, m, letters = op
        bh = self.bh
        return bh.evaluate_word(bh.BraidWord(n, letters), m)

    def check(self, op, output) -> bool:
        n, m, letters = op
        rows = [[oracle.evaluate_json_terms(e.to_json_terms()) for e in row]
                for row in output.entries]
        return output.n == n and output.m == m and oracle.rows_match(n, m, letters, rows)


# ---------------------------------------------------------------------------
# membership-ranks: small ring elements, per-call overhead
# ---------------------------------------------------------------------------

STRIDES = (2, 3, 5, 7, 11, 13)
MAX_PERIOD = 10010  # 2 * 5 * 7 * 11 * 13
UNITS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2))
PRIME = 1_000_003


class MembershipRanks(Workload):
    """Completion membership, the inclusion/module-action identity and chain
    complex ranks over Q, F_p and complex floats.  Elements are small, so the
    per-call cost of the ring dominates and the braid layer is unused."""

    name = "membership-ranks"
    CYCLE = ("member", "nonmember", "identity", "complex-q",
             "member", "nonmember", "identity", "complex-p",
             "member", "nonmember", "identity", "complex-c")
    traced_ops = 36

    def warm(self):
        bh = self.bh
        self.lattice = bh.LaurentRing(2, bh.Integers(), ("y", "z"))
        self.line = bh.LaurentRing(1, bh.Integers(), ("x",))
        self.points = {
            "complex-q": bh.SpecializationPoint({"x": Fraction(3, 2)}, bh.Rationals()),
            "complex-p": bh.SpecializationPoint({"x": 5}, bh.IntegersModP(PRIME)),
            "complex-c": bh.SpecializationPoint({"x": complex(math.cos(0.7), math.sin(0.7))},
                                                bh.ComplexApprox()),
        }
        # One operation of each kind, from a fixed seed: the same work
        # whatever the run's seed, including the lazy numpy import.
        ops = self.inputs(-1)
        for _ in self.CYCLE:
            self.run(next(ops))

    def inputs(self, seed: int):
        rng = random.Random(f"membership-ranks/{seed}")
        for kind in _passes(rng, self.CYCLE):
            if kind == "member":
                yield kind, self._completed(rng, member=True), True
            elif kind == "nonmember":
                yield kind, self._completed(rng, member=False), False
            elif kind == "identity":
                yield kind, (self._small(rng), self._small(rng)), True
            else:
                yield self._complex(rng, kind)

    def run(self, op):
        bh = self.bh
        kind, data, _ = op
        if kind in ("member", "nonmember"):
            return bh.is_in_group_ring(data)
        if kind == "identity":
            r, a = data
            return bh.equal(bh.include_group_ring(r * a),
                            bh.module_action(r, bh.include_group_ring(a)))
        ranks, boundaries = data
        cpx = bh.FiniteChainComplex(self.line, ranks, boundaries, "homological")
        return bh.homology_ranks_at(cpx, self.points[kind])

    def check(self, op, output) -> bool:
        return output == op[2]

    # -- inputs ---------------------------------------------------------------

    def _small(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        return self.lattice.element(terms)

    def _completed(self, rng, member: bool):
        """Finite part plus cancelling ray pairs on one line.

        Each pair is a ray and its copy shifted by whole periods with the
        opposite sign, so the pair sums to finitely many terms ("fwd") or to
        zero ("bi").  The strides are distinct primes, so the line's period is
        their product.  A non-member breaks one pair (drops or perturbs its
        second ray) or adds a helix class, whose two bi-infinite rays lie on
        different lines.
        """
        bh = self.bh
        while True:
            strides = rng.sample(STRIDES, rng.randint(2, 4))
            if math.prod(strides) <= MAX_PERIOD:
                break
        unit = rng.choice(UNITS)
        anchor = (rng.randint(-5, 5), rng.randint(-5, 5))

        def at(position):
            return tuple(a + position * u for a, u in zip(anchor, unit))

        pairs = []
        for stride in strides:
            sign = rng.choice((1, -1))
            offset = rng.randint(-20, 20)
            shift = sign * stride * rng.randint(1, 3)
            coeff = rng.choice((-3, -2, -1, 1, 2, 3))
            direction = rng.choice(("fwd", "fwd", "bi"))
            step = tuple(sign * stride * u for u in unit)
            pairs.append([bh.Ray(at(offset), step, (coeff,), direction),
                          bh.Ray(at(offset + shift), step, (-coeff,), direction)])
        if not member:
            how = rng.choice(("drop", "perturb", "helix"))
            pair = rng.choice(pairs)
            if how == "drop":
                pair.pop()
            elif how == "perturb":
                ray = pair[1]
                pair[1] = bh.Ray(ray.base, ray.step, (ray.pattern[0] + rng.choice((-1, 1)),),
                                 ray.direction)
            else:
                pairs.append(list(self._helix(rng).rays))
        rays = [ray for pair in pairs for ray in pair]
        rng.shuffle(rays)
        return bh.CompletedElement(self.lattice, self._small(rng), tuple(rays))

    def _helix(self, rng):
        bh = self.bh
        while True:
            y = (rng.randint(-3, 3), rng.randint(-3, 3))
            z = (rng.randint(-3, 3), rng.randint(-3, 3))
            step = (y[0] + z[0], y[1] + z[1])
            # y off the line through 0 along y + z: the two rays never meet.
            if y[0] * step[1] - y[1] * step[0] != 0:
                break
        triad = bh.SurfaceTriad(0, 3, 0, 1)
        return bh.helix_class(triad, (1, 0), y, z, self.lattice).entries[0]

    def _complex(self, rng, kind):
        """C2 -> C1 -> C0 with known Betti numbers.

        d1 = L0 E1 U1 and d2 = U1^-1 E2 U2, where the E are 0/1 diagonal
        blocks with E1 E2 = 0 and L, U are unimodular triangular integer
        matrices, so rank d1 = r1 and rank d2 = r2 over every field.  A
        monomial twist x^(e_i - e_j) keeps the composite zero and the ranks
        at any nonzero point.
        """
        a0, a2 = rng.randint(3, 12), rng.randint(3, 12)
        a1 = rng.randint(max(a0, a2), 24)
        r1 = rng.randint(0, min(a0, a1))
        r2 = rng.randint(0, min(a2, a1 - r1))
        e1 = [[int(i == j < r1) for j in range(a1)] for i in range(a0)]
        e2 = [[int(i - r1 == j < r2) for j in range(a2)] for i in range(a1)]
        u1, u1_inv = _triangular(rng, a1)
        d1 = _mul(_triangular(rng, a0, lower=True)[0], _mul(e1, u1))
        d2 = _mul(u1_inv, _mul(e2, _triangular(rng, a2)[0]))
        twist = [[rng.randint(-2, 2) for _ in range(size)] for size in (a0, a1, a2)]
        boundaries = tuple(self._twisted(d, twist[k], twist[k + 1]) for k, d in enumerate((d1, d2)))
        return kind, ((a0, a1, a2), boundaries), (a0 - r1, a1 - r1 - r2, a2 - r2)

    def _twisted(self, matrix, rows, cols):
        ring = self.line
        return tuple(
            tuple(ring.monomial((rows[i] - cols[j],), v) if v else ring.zero
                  for j, v in enumerate(row))
            for i, row in enumerate(matrix)
        )


def _mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _triangular(rng, size: int, lower: bool = False):
    """A sparse unit upper (or lower) triangular integer matrix and its inverse."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.15:
                m[i][j] = rng.choice((-1, 1))
    inv = [[0] * size for _ in range(size)]
    for col in range(size):
        # back substitution for m * inv[:, col] = e_col
        for i in reversed(range(size)):
            inv[i][col] = int(i == col) - sum(m[i][j] * inv[j][col] for j in range(i + 1, size))
    if lower:
        m = [list(row) for row in zip(*m)]
        inv = [list(row) for row in zip(*inv)]
    return m, inv


WORKLOADS = {w.name: w for w in (RepCold, WordsWarm, MembershipRanks)}
