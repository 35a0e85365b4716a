"""Enumeration, counting, ranking of weak compositions."""

from math import comb

import pytest

from braidhom.compositions import compositions, count, rank, unrank


def test_count_matches_binomial_and_enumeration():
    for l in range(1, 9):
        for m in range(0, 9):
            listed = compositions(l, m)
            assert count(l, m) == comb(m + l - 1, m) == len(listed)


def test_enumeration_is_colex_ascending():
    # Colex: compare reversed tuples; (2,0) < (1,1) < (0,2).
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    for l in (2, 3, 4, 7):
        for m in (1, 2, 3, 5):
            listed = compositions(l, m)
            assert len(listed) == count(l, m)
            for a, b in zip(listed, listed[1:]):
                assert tuple(reversed(a)) < tuple(reversed(b))


def test_enumeration_is_stable():
    assert compositions(3, 2) == compositions(3, 2)
    assert compositions(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_parts_are_nonnegative_and_sum_to_m():
    for l in (1, 3, 5):
        for m in (0, 2, 4):
            for e in compositions(l, m):
                assert len(e) == l
                assert all(p >= 0 for p in e)
                assert sum(e) == m


def test_rank_unrank_round_trip():
    for l in (1, 2, 4, 6):
        for m in (0, 1, 3, 5):
            for index, e in enumerate(compositions(l, m)):
                assert rank(e) == index
                assert unrank(index, l, m) == e


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        unrank(count(3, 2), 3, 2)
    with pytest.raises(ValueError):
        unrank(-1, 3, 2)


def test_compositions_refuse_more_stored_parts_than_the_bound(monkeypatch):
    with pytest.raises(ValueError, match="exceed the bound of 10000000 stored parts"):
        compositions(3163, 1)  # 3163 * 3163 parts; 3162 * 3162 is the largest Burau basis
    with pytest.raises(ValueError, match="26536589497469056215210 compositions"):
        compositions(39, 40)
    # `braidhom.compositions` is the function, which shadows its module's name
    monkeypatch.setitem(compositions.__globals__, "MAX_PARTS", 6)
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]  # 3 * 2 parts
    with pytest.raises(ValueError):
        compositions(3, 1)  # 3 * 3 parts
