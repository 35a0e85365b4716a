"""One-off timings of the ROADMAP targets, untraced, in a fresh interpreter.

    python3 perfbench/probes.py --seed 1

probe.lkb_inverses_n8_s  the seven LKB generator inverses at n = 8 from cold:
                         evaluate_word on each one-letter word -1..-7, which
                         builds the corner change of basis, the generators and
                         their exact inverses (plus a product with the identity).
probe.word_n6_l100_s     evaluate_word on a seeded 100-letter word at n = 6,
                         m = 2, with generators and inverses already built.
probe.mul_large_pair_s   one product of the two entries of that result with
                         the most terms.

The word result is checked against the mod-P reference.  Prints one JSON
line: {"metrics": {...}, "correct": bool}.
"""

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    import braidhom as bh

    metrics = {}
    start = perf_counter()
    for i in range(1, 8):
        bh.evaluate_word(bh.BraidWord(8, (-i,)), 2)
    metrics["probe.lkb_inverses_n8_s"] = perf_counter() - start

    bh.evaluate_word(bh.BraidWord(6, tuple(range(1, 6)) + tuple(range(-5, 0))), 2)
    rng = random.Random(f"probe/{args.seed}")
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(100))
    start = perf_counter()
    result = bh.evaluate_word(bh.BraidWord(6, letters), 2)
    metrics["probe.word_n6_l100_s"] = perf_counter() - start

    entries = sorted((len(e.support()), r, c) for r, row in enumerate(result.entries)
                     for c, e in enumerate(row))
    (_, r1, c1), (_, r2, c2) = entries[-2:]
    start = perf_counter()
    result.entries[r1][c1] * result.entries[r2][c2]
    metrics["probe.mul_large_pair_s"] = perf_counter() - start

    rows = [[oracle.evaluate_json_terms(e.to_json_terms()) for e in row] for row in result.entries]
    print(json.dumps({"metrics": metrics, "correct": oracle.rows_match(6, 2, letters, rows)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
