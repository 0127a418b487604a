"""Independent references the benchmark checks every output against.

Nothing here imports reesag.  Monomials are plain exponent tuples and every
answer is found by the most direct method available: exhaustive search over
a bounding box, pairwise sums or lcms followed by a quadratic
minimalisation, and the classification rule of the paper restated from its
theorem.  The golden table and the JSON schemas are copies kept in
``perfbench/data`` so that a change to the program cannot also change what
the benchmark accepts.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

Gens = list[tuple[int, ...]]


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal(gens) -> Gens:
    """The minimal generators of the monomial ideal spanned by gens, sorted."""
    unique = sorted(set(gens), key=sum)
    kept: Gens = []
    for g in unique:
        if not any(divides(k, g) for k in kept):
            kept.append(g)
    return sorted(kept)


def member(gens: Gens, mono: tuple[int, ...]) -> bool:
    return any(divides(g, mono) for g in gens)


def product(a: Gens, b: Gens) -> Gens:
    return minimal(tuple(x + y for x, y in zip(g, h)) for g in a for h in b)


def intersection(a: Gens, b: Gens) -> Gens:
    return minimal(tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b)


def colon(ideal: Gens, other: Gens) -> Gens:
    """ideal : other by testing every cell of the box below the lcm of ideal.

    Each minimal generator of the colon divides the componentwise maximum of
    the generators of ideal, so the box holds all of them.
    """
    dim = len(ideal[0])
    top = [max(g[k] for g in ideal) for k in range(dim)]
    found = [
        u
        for u in itertools.product(*(range(t + 1) for t in top))
        if all(member(ideal, tuple(x + y for x, y in zip(u, m))) for m in other)
    ]
    return minimal(found)


def colength(gens: Gens) -> int:
    """Standard monomials of an m-primary ideal, walking its box cell by cell."""
    dim = len(gens[0])
    box = []
    for k in range(dim):
        pures = [g[k] for g in gens if g[k] > 0 and sum(g) == g[k]]
        if not pures:
            raise ValueError(f"no pure power in variable {k}")
        box.append(min(pures))
    return sum(
        1
        for cell in itertools.product(*(range(side) for side in box))
        if not member(gens, cell)
    )


def good(ideal: Gens, reduction: Gens) -> dict:
    """Stability I^2 = QI and closure Q : I = I, decided on tuples."""
    stable = product(ideal, ideal) == product(reduction, ideal)
    colon_gens = colon(reduction, ideal)
    closed = colon_gens == minimal(ideal)
    return {"stable": stable, "colon_closed": closed, "good": stable and closed, "colon": colon_gens}


def of_degree(dim: int, degree: int) -> Gens:
    """Every exponent vector of the given total degree, by recursion."""
    if dim == 1:
        return [(degree,)]
    return [(head,) + rest for head in range(degree, -1, -1) for rest in of_degree(dim - 1, degree - head)]


def count_below(dim: int, degree: int) -> int:
    """Number of exponent vectors of total degree < degree, by dynamic programming."""
    ways = [1] + [0] * (degree - 1)  # vectors in zero variables, by total degree
    for _ in range(dim):
        for total in range(1, degree):
            ways[total] += ways[total - 1]
    return sum(ways)


def label(d: int, ell: int) -> str:
    """The classification theorem: Gor on the diagonal, AG for ell = 1 or d = 2,
    AGL for the other divisors of d - 1, X everywhere else."""
    if ell == d - 1:
        return "Gor"
    if ell == 1 or d == 2:
        return "AG"
    if (d - 1) % ell == 0:
        return "AGL"
    return "X"


def golden_csv() -> str:
    return (DATA / "table_10_9.csv").read_text(encoding="utf-8")


def golden_labels() -> dict[tuple[int, int], str]:
    rows = csv.DictReader(golden_csv().splitlines())
    return {(int(r["d"]), int(r["ell"])): r["label"] for r in rows}


def schema(name: str) -> dict:
    return json.loads((DATA / "schemas" / f"{name}.schema.json").read_text(encoding="utf-8"))
