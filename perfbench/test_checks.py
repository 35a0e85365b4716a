"""Fault injection: the benchmark's checks must count wrong outputs as failures.

    python3 -m pytest -q perfbench/test_checks.py

Kept out of the repository's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from braidhom import BraidWord, RepMatrix, evaluate_word  # noqa: E402
from braidhom.cli import main as cli_main  # noqa: E402


def _ops(workload, kind, count=1):
    return [op for op, _ in zip((op for op in workload.inputs(7) if op[0] == kind), range(count))]


def test_reference_matches_the_program_and_the_golden_file():
    assert oracle.golden_mismatches(worker.GOLDEN) == []
    for n, m, letters in ((4, 2, (1, -3, 2, -1)), (6, 1, (5, -2, 3, -4, 1))):
        result = evaluate_word(BraidWord(n, letters), m)
        rows = [[oracle.evaluate_json_terms(e.to_json_terms()) for e in row] for row in result.entries]
        assert oracle.rows_match(n, m, letters, rows)


def test_corrupted_golden_entry_is_reported(tmp_path):
    data = json.loads(worker.GOLDEN.read_text())
    data["matrices"][-1]["rows"][0][0] += " + 1"
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(data))
    assert oracle.golden_mismatches(corrupted) == ["n=4 m=2 i=3"]


def test_corrupted_matrix_entry_counts_as_failure():
    words = workloads.WordsWarm()
    words.setup()
    op = (5, 2, (1, -2, 3, -4, 2))
    good = words.run(op)
    entries = [list(row) for row in good.entries]
    entries[2][3] = entries[2][3] + 1
    bad = RepMatrix(good.n, good.m, tuple(map(tuple, entries)), good.convention)
    assert worker.attempt(words, op, lambda _: good)[1] is None
    assert worker.attempt(words, op, lambda _: bad)[1] is not None


def test_corrupted_cli_output_counts_as_failure(capsys):
    rep = workloads.RepCold()
    op = (5, (1, -2, 3, -4, 2, 1))
    assert cli_main(rep.argv(op)) == 0
    stdout = capsys.readouterr().out.encode()
    payload = json.loads(stdout)
    payload["rows"][1][1] = payload["rows"][1][1] + " + x"
    corrupted = json.dumps(payload, sort_keys=True).encode()
    assert worker.attempt(rep, op, lambda _: (0, stdout))[1] is None
    assert worker.attempt(rep, op, lambda _: (0, corrupted))[1] is not None
    assert worker.attempt(rep, op, lambda _: (1, stdout))[1] is not None


def test_flipped_verdict_and_wrong_rank_count_as_failures():
    ranks = workloads.MembershipRanks()
    ranks.setup()
    for kind in ("member", "nonmember", "identity", "complex-q", "complex-p", "complex-c"):
        for op in _ops(ranks, kind, 3):
            output = ranks.run(op)
            assert worker.attempt(ranks, op, lambda _: output)[1] is None
            if isinstance(output, bool):
                wrong = not output
            else:
                wrong = (output[0] + 1,) + output[1:]
            assert worker.attempt(ranks, op, lambda _: wrong)[1] is not None


def test_failures_are_counted_by_the_timed_loop():
    ranks = workloads.MembershipRanks()
    ranks.setup()
    ranks.run = lambda op: "wrong"
    result = worker.measure(ranks, ranks.inputs(1), 0.2)
    assert result["times"] and len(result["errors"]) == len(result["times"])


def test_traced_counts_repeat_for_a_seed():
    ranks = workloads.MembershipRanks()
    ranks.setup()
    ranks.traced_ops = 12

    def counts():
        layers = worker.traced(ranks, ranks.inputs(5), 5)["layers"]
        return {k: v for k, v in layers.items() if not k.endswith("_s") and "ratio" not in k}

    first = counts()
    assert first == counts()
    assert first["braid.evaluate_word.calls"] == 0
    assert first["completion.is_in_group_ring.calls"] >= 3
    assert set(tracing.SPAN_NAMES) <= {k.rsplit(".", 1)[0] for k in first}
