import random

import pytest

from dicrit.digraph import (
    Digraph,
    bidirected_complete,
    bidirected_cycle,
    directed_cycle,
)
from dicrit.ore import generate_4ore, ore_compose

#: Sizes used by the seeded 4-Ore corpus (n <= 25, every valid order).
CORPUS_SIZES = (4, 7, 10, 13, 16, 19, 22, 25)
CORPUS_COUNT = 200


@pytest.fixture(scope="session")
def k4():
    return bidirected_complete(4)


@pytest.fixture(scope="session")
def k3():
    return bidirected_complete(3)


@pytest.fixture(scope="session")
def c3():
    return directed_cycle(3)


@pytest.fixture(scope="session")
def c5_bi():
    return bidirected_cycle(5)


def quadratic_residue_tournament(p: int) -> Digraph:
    """QR_p for a prime p = 3 (mod 4): the arc i -> j whenever j - i is a
    nonzero square mod p.  -1 is then a non-square, so exactly one of
    j - i and i - j is a square, and QR_p is a tournament."""
    squares = {x * x % p for x in range(1, p)}
    return Digraph(p, [(i, j) for i in range(p) for j in range(p) if (j - i) % p in squares])


@pytest.fixture(scope="session")
def qr7():
    """QR_7, 3-dicritical with 21 arcs."""
    return quadratic_residue_tournament(7)


@pytest.fixture(scope="session")
def qr11():
    """QR_11, 4-dicritical with 55 arcs."""
    return quadratic_residue_tournament(11)


@pytest.fixture(scope="session")
def seven_vertex_composition(k4):
    """The smallest proper Ore-composition: two K4s, |Z1| = 1."""
    d, _ = ore_compose(k4, (0, 1), k4, 3, [0], [1, 2])
    return d


@pytest.fixture(scope="session")
def ore_corpus():
    """200 seeded random 4-Ore digraphs with n <= 25 (acceptance corpus)."""
    corpus = []
    for seed in range(CORPUS_COUNT):
        n = CORPUS_SIZES[seed % len(CORPUS_SIZES)]
        d, trace = generate_4ore(n, seed=seed)
        corpus.append((seed, d, trace))
    return corpus


def random_digraph(seed: int, max_n: int = 9) -> Digraph:
    """Seeded random digraph used by the packing suites."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    p = rng.choice((0.15, 0.3, 0.5))
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def random_bidirected(rng: random.Random, n: int) -> Digraph:
    """Random bidirected graph; retried by callers until it fits their need."""
    p = rng.choice((0.4, 0.6, 0.8))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.append((u, v))
                arcs.append((v, u))
    return Digraph(n, arcs)
