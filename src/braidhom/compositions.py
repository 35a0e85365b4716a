"""Weak compositions of m into l parts, in colexicographic order.

These tuples index every basis in the package, so the enumeration order here
is THE basis order everywhere: matrices in the pairing, embedding and braid
modules all refer to it.  Colex order compares tuples from the last
coordinate backwards, e.g. for l=2, m=2:

    (2,0) < (1,1) < (0,2)

which matches reading the arcs of the standard basis pictures left to right.
"""

from __future__ import annotations

from math import comb

MAX_PARTS = 10**7  # the most parts `compositions` stores, count(l, m) * l


def count(l: int, m: int) -> int:
    """|E_{l,m}| by stars and bars.

    >>> count(3, 2)
    6
    """
    _validate_shape(l, m)
    return comb(m + l - 1, m)


def compositions(l: int, m: int) -> list[tuple[int, ...]]:
    """All l-tuples of non-negative integers summing to m, in colex order.

    More than MAX_PARTS = 10^7 parts, count(l, m) * l, is a ValueError at once.

    >>> compositions(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    >>> compositions(1, 5)
    [(5,)]
    """
    if (size := count(l, m)) * l > MAX_PARTS:
        raise ValueError(f"the {size} compositions of {m} into {l} parts exceed the bound of "
                         f"{MAX_PARTS} stored parts")
    # Colex successor: the first nonzero part j sends one point to arc j + 1
    # and the rest of its points to arc 0; (0, ..., 0, m) is the last.
    parts = [m] + [0] * (l - 1)
    out = [tuple(parts)]
    while parts[-1] != m:
        j = next(i for i, p in enumerate(parts) if p)
        parts[j], parts[0] = 0, parts[j] - 1
        parts[j + 1] += 1
        out.append(tuple(parts))
    return out


def rank(e: tuple[int, ...], m: int | None = None) -> int:
    """Position of e in compositions(len(e), sum(e)).

    Runs in O(l) using partial stars-and-bars counts instead of enumerating.

    >>> rank((2, 0))
    0
    >>> [rank(e) for e in compositions(3, 4)] == list(range(count(3, 4)))
    True
    """
    total = sum(e)
    if m is not None and m != total:
        raise ValueError(f"composition {e} does not sum to {m}")
    if len(e) < 1 or any(p < 0 for p in e):
        raise ValueError(f"not a composition: {e}")
    l, m = len(e), total
    index = 0
    for part in reversed(e[1:]):
        # compositions with a smaller last coordinate come first
        index += sum(count(l - 1, m - t) for t in range(part))
        m -= part
        l -= 1
    return index


def unrank(index: int, l: int, m: int) -> tuple[int, ...]:
    """Inverse of rank: the index-th composition in colex order.

    >>> unrank(2, 2, 2)
    (0, 2)
    """
    _validate_shape(l, m)
    if not 0 <= index < count(l, m):
        raise ValueError(f"index {index} out of range for E_{{{l},{m}}}")
    parts_reversed = []
    for _ in range(l - 1):
        last = 0
        while True:
            block = count(l - 1, m - last)
            if index < block:
                break
            index -= block
            last += 1
        parts_reversed.append(last)
        m -= last
        l -= 1
    parts_reversed.append(m)
    return tuple(reversed(parts_reversed))


def _validate_shape(l: int, m: int):
    if l < 1:
        raise ValueError(f"need at least one part, got l={l}")
    if m < 0:
        raise ValueError(f"need a non-negative total, got m={m}")
