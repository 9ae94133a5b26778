"""Fixed reference work for measuring the machine's speed during a run.

Run as ``python -I bench/reference.py``. It imports no part of sorklie and
never changes, so its wall time moves only with the machine: the CPU
time other tenants leave, frequency, cache and memory contention. It
does what a CLI op does, in small: start the interpreter, import the
standard modules the CLI imports, build dataclasses, and spend some tens
of milliseconds on big-integer bit operations (as the clique search
does) and on tuples, sets and fractions (as graph construction does).
It prints a checksum.
"""

import argparse  # noqa: F401
import dataclasses
import enum  # noqa: F401
import fractions
import functools  # noqa: F401
import itertools
import json
import random
import re


@dataclasses.dataclass(frozen=True, order=True)
class Vec:
    coords: tuple[int, ...]


def bit_work(n: int = 96, rounds: int = 60) -> int:
    rng = random.Random(0)
    neigh = [rng.getrandbits(n) for _ in range(n)]
    total = 0
    for r in range(rounds):
        for v in range(n):
            q = neigh[v] & neigh[(v * 7 + r) % n]
            while q:
                b = q & -q
                total += b.bit_length()
                q ^= b
    return total


def tuple_work(dim: int = 6) -> int:
    vecs = sorted({Vec(tuple(2 * s for s in signs))
                   for signs in itertools.product((-1, 0, 1), repeat=dim) if any(signs)})
    members = {v.coords for v in vecs}
    hits = 0
    for a, b in itertools.combinations(vecs[::6], 2):
        if fractions.Fraction(sum(x * y for x, y in zip(a.coords, b.coords)), 4) == 0:
            hits += tuple(x + y for x, y in zip(a.coords, b.coords)) in members
    return hits


if __name__ == "__main__":
    pattern = re.compile(r"\s*(?P<name>[A-Za-z]+)")
    print(json.dumps({"bits": bit_work(), "tuples": tuple_work(),
                      "match": bool(pattern.match("sork"))}))
