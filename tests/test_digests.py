"""Committed digests of the maintained inverse and of its distance reads.

Each stream replays a fixed sequence of edge updates through a
PathReporter and, after every update, feeds M^-1 = T(I + N) (from
host.query_full) into one sha256 and the all-pairs min-degree block
(from dist_block) into another.  The pinned digests were taken before
poly_mat_mul gained its degree-major path, so a kernel or inverse
refactor that changes any answer, at any update, fails here.  T and N
themselves are not pinned: only the inverse they represent is.

At n = 48 and D = 8 the resets and full reads multiply (48, |nrows|, 9)
by (|nrows|, 48, 9), a product too large for one Toeplitz block.
"""

import hashlib
import random

import numpy as np
import pytest

from dynsp import _kernels
from dynsp._kernels import MERSENNE61
from dynsp.graph import DynamicGraph
from dynsp.reporter import PathReporter
from dynsp.ring import FieldParams

N, D, EDGES, UPDATES = 48, 8, 72, 80

PINS = {
    (False, MERSENNE61): (
        "70cc2c7088fb367ad796dc4e1a7b40ce5790c8b6fd2a4c084339a2795dfdf9be",
        "1f88a5aed6c2783e76e3a1922542e3d228602c5df4588b61916f333a19a38695",
    ),
    (False, 10007): (
        "162689bde7edcc946920bcb04b21e86b872256dc6e89aa1c27f45f4c735be653",
        "a9d02f9bcf7703b0e7803231ad7c2c055582827521d20855ba55c3a84496414e",
    ),
    (True, MERSENNE61): (
        "1bd0cd77c187d20e448beca8fea5d4482e46211d48813e03cdaea30eefa62e2a",
        "bb5d4ba63d7882bbc6a932c75f23c5efb6027427f7922e64ac072de22fb465e8",
    ),
    (True, 10007): (
        "9620a29304e2ae9811dd80bfec8ad44a610e9431679225e1e4da00d2d5917bed",
        "89db4589431e6b2c4e2f65762ee062fee3c1b3302b73642bdf32bbea0b329028",
    ),
}


def replay(directed, p):
    """The reporter after a fixed stream, and the two running digests."""
    rng = random.Random(f"digest/{int(directed)}/{p}")
    g = DynamicGraph(N, directed=directed)
    present = []

    def random_absent():
        while True:
            u, v = rng.sample(range(N), 2)
            if directed or u < v:
                if v not in g.adj[u]:
                    return u, v

    for _ in range(EDGES):
        e = random_absent()
        g.insert_edge(*e)
        present.append(e)
    pr = PathReporter(g, D, seed=3, params=FieldParams(p=p, rng_seed=3))
    full, dist = hashlib.sha256(), hashlib.sha256()
    for _ in range(UPDATES):
        if len(present) > EDGES or (len(present) == EDGES and rng.random() < 0.5):
            pr.pr_delete(*present.pop(rng.randrange(len(present))))
        else:
            e = random_absent()
            pr.pr_insert(*e)
            present.append(e)
        full.update(pr.host.query_full().astype("<u8").tobytes())
        dist.update(pr.dist_block(range(N), range(N)).astype("<i8").tobytes())
    return pr, full.hexdigest(), dist.hexdigest()


@pytest.mark.parametrize("directed, p", list(PINS))
def test_inverse_and_distances_match_their_pins_after_every_update(directed, p):
    pr, full, dist = replay(directed, p)
    assert (full, dist) == PINS[directed, p]
    stats = pr.host.stats()
    assert stats["resets"] >= 3
    assert not _kernels._fits_one_block(N, stats["nrows_max"], N, D + 1)
