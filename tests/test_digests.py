"""Committed digests of the maintained inverse and of its distance reads.

Each stream replays a fixed sequence of edge updates through a
PathReporter and, after every update, feeds M^-1 = T(I + N) (from
host.query_full) into one sha256 and the all-pairs min-degree block
(from dist_block) into another.  The pinned digests were taken before
poly_mat_mul gained its degree-major path (the p = 5 and D = 24 streams
before the limb products went from nine to six), so a kernel or
inverse refactor that changes any answer, at any update, fails here.
T and N themselves are not pinned: only the inverse they represent is.

The exact-APSP stream replays chord updates on a cycle through a
HittingSetApsp whose hitting set is a strict subset of the vertices,
and pins exact_dist_matrix after every update in one digest and a few
stitched paths in another.  The distance digest was taken while the
closure still read a maintained H x H view of the inverse; the path
digest pins which of several tied shortest paths the waypoint rule
reports.

The spanner streams pin RebuildSpanner.edges() after every update: chord
updates on the steiner-grid benchmark's 8 x 8 grid, and mixed updates on
G(48, 110).  The Steiner stream pins the tree's edge set after every
chord update and terminal change, over the benchmark's provider, whose
distances beyond D come from that spanner.  They were taken while
graph.bfs_tree still found each parent in a second pass and
level_tables redid its exact arithmetic on every call.

The algebraic spanner streams pin AlgSpannerState's H and the activeness
of every vertex after every mixed update, and the partially dynamic
streams pin SpannerState's, decremental and incremental.  They were taken
while AlgSpannerState still built its path core over a copy of its graph.

At n = 48 the resets and full reads multiply (48, |nrows|, D+1) by
(|nrows|, 48, D+1), a product too large for one Toeplitz block.  The
p = 5 stream pins a prime whose entries fit in three bits, where sums
cancel mod p often; D = 24 is the apsp-ring degree bound.
"""

import functools
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from dynsp import _kernels, reporter
from dynsp._kernels import MERSENNE61
from dynsp.apsp import ApproxApsp, HittingSetApsp
from dynsp.estree import DECREMENTAL, INCREMENTAL
from dynsp.graph import (
    AddTerminal,
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    RemoveTerminal,
    all_pairs_dist,
    apply_update,
    graph_of,
    validate_path,
)
from dynsp.reporter import PathReporter
from dynsp.ring import FieldParams
from dynsp.spanner_alg import AlgSpannerState
from dynsp.spanner_comb import RebuildSpanner, SpannerState
from dynsp.steiner import SteinerState

N, D, EDGES, UPDATES = 48, 8, 72, 80  # D: the default stream's bound

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

MORE_PINS = {  # (directed, p, D): streams at a tiny prime and a larger D
    (False, 5, 8): (
        "28c6f7bb02b149a295692b6b2522a4e9da1b22f9502f9a908f5fa0392e7584a4",
        "cbff7e156a38e082433a132e05f31491c91e4557681c8e955c9474520ee420c8",
    ),
    (True, MERSENNE61, 24): (
        "0f4b93a702984f484b1cda9dcd6dd6201e20cd98ea7fdaffcfb39bc84ed5bd45",
        "f07784ce65002d24d87b65f91e71b7310fa1a95cb0e74985a8c3b13e8748d1da",
    ),
}


def replay(directed, p, d=D):
    """The reporter after a fixed stream, and the two running digests."""
    rng = random.Random(f"digest/{int(directed)}/{p}" + (f"/{d}" if d != D else ""))
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
    pr = PathReporter(g, d, seed=3, params=FieldParams(p=p, rng_seed=3))
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


@pytest.mark.parametrize("directed, p, d", list(MORE_PINS))
def test_tiny_prime_and_large_bound_streams_match_their_pins(directed, p, d):
    pr, full, dist = replay(directed, p, d)
    assert (full, dist) == MORE_PINS[directed, p, d]
    stats = pr.host.stats()
    assert stats["resets"] >= 3
    assert not _kernels._fits_one_block(N, stats["nrows_max"], N, d + 1)


RING_N, RING_D, RING_CHORDS, RING_UPDATES = 64, 24, 6, 40

APSP_PINS = {  # p: (exact_dist_matrix digest, stitched paths digest)
    MERSENNE61: (
        "8b95d2c682394de5f2c6078b686d0e0382933bddf51c6f532fddd720376ee5a3",
        "72916ccc53b4309bfb24b935ab050fb5d506b4a206c8ef3f4aaed9b5ba4cdd7d",
    ),
    10007: (
        "24cd0125177cba05a5f10051773520aef32096b945446c5b45f0cbab9a4314b3",
        "d9ab921922b52123e1cd5a79178eee0cba60278672462ad911750bb7e5cec699",
    ),
}


def replay_apsp(p, monkeypatch):
    """A HittingSetApsp over the field of p after a fixed chord stream on a
    cycle, and its running distance and path digests."""
    # the structure takes the default field; the stream swaps in p
    monkeypatch.setattr(reporter, "FieldParams", functools.partial(FieldParams, p))
    rng = random.Random(f"digest/apsp/{p}")
    g = DynamicGraph(RING_N)
    for v in range(RING_N):
        g.insert_edge(v, (v + 1) % RING_N)
    chords = []

    def new_chord():
        while True:
            u = rng.randrange(RING_N)
            v = (u + rng.randint(2, 4)) % RING_N
            if not g.has_edge(u, v):
                return min(u, v), max(u, v)

    while len(chords) < RING_CHORDS:
        chords.append(new_chord())
        g.insert_edge(*chords[-1])
    st = HittingSetApsp(g.copy(), RING_D, seed=5)
    dist, paths = hashlib.sha256(), hashlib.sha256()
    for _ in range(RING_UPDATES):
        if len(chords) >= RING_CHORDS:
            ev = DeleteEdge(*chords.pop(rng.randrange(len(chords))))
            g.delete_edge(ev.u, ev.v)
        else:
            chords.append(new_chord())
            ev = InsertEdge(*chords[-1])
            g.insert_edge(ev.u, ev.v)
        st.apply(ev)
        mat = st.exact_dist_matrix()
        assert mat.tolist() == all_pairs_dist(g)
        dist.update(mat.astype("<f8").tobytes())
        far = [(i, j) for i, j in np.argwhere(mat > RING_D).tolist() if mat[i, j] < np.inf]
        for i, j in rng.sample(far, min(4, len(far))):
            path = st.exact_path(i, j)
            assert path[0] == i and path[-1] == j and len(path) - 1 == mat[i, j]
            assert validate_path(g, path)
            paths.update(("-".join(map(str, path)) + "\n").encode())
    return st, dist.hexdigest(), paths.hexdigest()


@pytest.mark.parametrize("p", list(APSP_PINS))
def test_exact_apsp_distances_and_stitched_paths_match_their_pins(p, monkeypatch):
    st, dist, paths = replay_apsp(p, monkeypatch)
    assert st.pr.params.p == p
    assert len(st.H) < RING_N and st.stats()["stitched"] > 0
    assert (dist, paths) == APSP_PINS[p]


# ---- the combinatorial spanner and the Steiner tree ---------------------------

SIDE, CHORDS = 8, 6  # the steiner-grid benchmark's grid and chord count
SPANNER_UPDATES, STEINER_ROUNDS = 60, 40

# (family, eps): digest of RebuildSpanner.edges() after every update.  The
# grid runs at the steiner-grid spanner's eps.  On G(48, 110) no finite
# distance exceeds 5, below every ball radius and blocking floor at both
# eps, so their H, and pins, agree.
SPANNER_PINS = {
    ("grid", Fraction(1, 4)): "93521cb5158169ca9ed437c2155cef2ebf9da2ee0c79fadf6d4b12cf32eef112",
    ("gnp", Fraction(1, 2)): "d85f48974d66f4e8fa0dc7bc850db8f10b609781966f2e062b664b82e146eaf2",
    ("gnp", Fraction(1)): "d85f48974d66f4e8fa0dc7bc850db8f10b609781966f2e062b664b82e146eaf2",
}

STEINER_PIN = "c57ed809d49aa95b2a645d4f091b581db4cfa033f23ee52bedbd777242ed0751"


def grid_edges(side):
    edges = {(v, v + 1) for v in range(side * side) if (v + 1) % side}
    return edges | {(v, v + side) for v in range(side * (side - 1))}


def diagonal(side, rng):
    """A random diagonal of one grid cell, as (min, max)."""
    r, c = rng.randrange(side - 1), rng.randrange(side - 1)
    if rng.random() < 0.5:
        return r * side + c, (r + 1) * side + c + 1
    return r * side + c + 1, (r + 1) * side + c


def chord_stream(g, grid, rng):
    """Endless edge events that keep about CHORDS diagonals on the grid:
    delete a random one once there are CHORDS, else insert a new one."""
    while True:
        chords = sorted(e for e in g.edges() if e not in grid)
        if len(chords) >= CHORDS:
            yield DeleteEdge(*rng.choice(chords))
        else:
            while g.has_edge(*(e := diagonal(SIDE, rng))):
                pass
            yield InsertEdge(*e)


def gnp_stream(g, rng):
    """Endless edge events that alternately delete a present edge and
    insert an absent one."""
    while True:
        yield DeleteEdge(*rng.choice(sorted(g.edges())))
        while g.has_edge(*(e := tuple(sorted(rng.sample(range(g.n), 2))))):
            pass
        yield InsertEdge(*e)


def spanner_instance(family):
    """A graph and an endless stream of edge events against it."""
    rng = random.Random(f"digest/spanner/{family}")
    if family == "grid":
        grid = grid_edges(SIDE)
        g = graph_of(SIDE * SIDE, grid)
        while g.edge_count < len(grid) + CHORDS:
            e = diagonal(SIDE, rng)
            if not g.has_edge(*e):
                g.insert_edge(*e)
        return g, chord_stream(g, grid, rng)
    g = DynamicGraph(48)
    while g.edge_count < 110:
        e = tuple(sorted(rng.sample(range(48), 2)))
        if not g.has_edge(*e):
            g.insert_edge(*e)
    return g, gnp_stream(g, rng)


def edge_line(edges) -> bytes:
    return ("".join(f"{u}-{v} " for u, v in sorted(edges)) + "\n").encode()


def replay_spanner(family, eps):
    """A RebuildSpanner after a fixed stream, and the running digest of
    its sorted edges after every update."""
    g, stream = spanner_instance(family)
    sp = RebuildSpanner(g.copy(), eps, seed=1)
    digest = hashlib.sha256()
    for ev, _ in zip(stream, range(SPANNER_UPDATES)):
        apply_update(g, ev)
        sp.apply(ev)
        edges = sp.edges()
        assert all(g.has_edge(u, v) for u, v in edges)
        digest.update(edge_line(edges))
    return sp, digest.hexdigest()


@pytest.mark.parametrize("family, eps", list(SPANNER_PINS))
def test_rebuild_spanner_edges_match_their_pins_after_every_update(family, eps):
    sp, digest = replay_spanner(family, eps)
    stats = sp.stats()
    assert stats["rebuilds"] == SPANNER_UPDATES and stats["trees"] > SPANNER_UPDATES
    assert digest == SPANNER_PINS[family, eps]


def replay_steiner():
    """A SteinerState over the steiner-grid benchmark's provider after a
    fixed stream of chord updates and terminal changes, and the running
    digest of its tree's sorted edges after every event."""
    rng = random.Random("digest/steiner")
    g, stream = spanner_instance("grid")
    provider = ApproxApsp(g.copy(), Fraction(1, 2), seed=1, D=6)
    st = SteinerState(provider.g, rng.sample(range(g.n), 6), provider=provider)
    digest = hashlib.sha256()
    grow = True
    for ev, _ in zip(stream, range(STEINER_ROUNDS)):
        apply_update(g, ev)
        if len(st.S) in (4, 8):  # the terminal count sweeps 4..8 and back
            grow = len(st.S) == 4
        if grow:
            change = AddTerminal(rng.choice([x for x in range(g.n) if x not in st.S]))
        else:
            change = RemoveTerminal(rng.choice(sorted(st.S)))
        for e in (ev, change):
            digest.update(edge_line(st.apply(e).edges))
    return st, digest.hexdigest()


def test_steiner_tree_edges_match_their_pin_after_every_event():
    st, digest = replay_steiner()
    stats = st.stats()
    assert stats["spanner_rebuilds"] > 0 and stats["spanner_rows"] > 0
    assert digest == STEINER_PIN


# ---- the algebraic spanner and the partially dynamic spanners -----------------

ALG_UPDATES, MODE_UPDATES = 60, 40

# family: digest of AlgSpannerState's H and active after every update.  gnp
# is the spanner-alg-gnp benchmark's shape, G(128, 512) at eps = 1, k = 2,
# b = 5; reinit is G(30, 60) with reinit_threshold lowered to 20, so every
# update re-initialises the levels and the path core.
ALG_SPANNER_PINS = {
    "gnp": "33ad54643ddb1bf3900e3e33201959bb64fe039e742a836c97b91ce643672280",
    "reinit": "0d01f899aab9ae8b37b01d298ac3299a09ae9a978df84259a603ae967de3636d",
}

# mode: digest of SpannerState's H and active after every update, over the
# steiner-grid benchmark's grid at eps = 1: deletions from the grid with its
# diagonals, insertions of diagonals into the bare grid.
MODE_SPANNER_PINS = {
    DECREMENTAL: "519fb905e7f95d377d930c000ab8e6ce43fe2698684db9788f6e086057e1ff1a",
    INCREMENTAL: "2e90ba56550978179d1e811b14026ea0b2bab11e7d1f6b14b47435714fcbf098",
}


def random_gnp(n, m, rng):
    g = DynamicGraph(n)
    while g.edge_count < m:
        e = tuple(sorted(rng.sample(range(n), 2)))
        if not g.has_edge(*e):
            g.insert_edge(*e)
    return g


def active_line(active) -> bytes:
    return ("".join("1" if active[v] else "0" for v in range(len(active))) + "\n").encode()


def replay_alg_spanner(family):
    """An AlgSpannerState after a fixed mixed stream, and the running
    digest of its H and active after every update."""
    rng = random.Random(f"digest/spanner-alg/{family}")
    if family == "gnp":
        g = random_gnp(128, 512, rng)
        st = AlgSpannerState(g.copy(), 1, seed=1, k=2, b=5)
    else:
        g = random_gnp(30, 60, rng)
        st = AlgSpannerState(g.copy(), 1, kappa=0.5, seed=9, k=2, b=4)
        st.reinit_threshold = 20
    digest = hashlib.sha256()
    for ev, _ in zip(gnp_stream(g, rng), range(ALG_UPDATES)):
        apply_update(g, ev)
        h = st.alg_update(ev)
        assert all(g.has_edge(u, v) for u, v in h)
        digest.update(edge_line(h) + active_line(st.active))
    return st, digest.hexdigest()


@pytest.mark.parametrize("family", list(ALG_SPANNER_PINS))
def test_algebraic_spanner_h_and_active_match_their_pins_after_every_update(family):
    st, digest = replay_alg_spanner(family)
    stats = st.stats()
    assert stats["updates"] == ALG_UPDATES and stats["reporter_block_reads"] > 0
    assert (stats["reinits"] == ALG_UPDATES) == (family == "reinit")
    assert digest == ALG_SPANNER_PINS[family]


def replay_mode_spanner(mode):
    """A SpannerState after a fixed stream of its mode's events, and the
    running digest of its H and active after every update."""
    rng = random.Random(f"digest/spanner-mode/{mode}")
    grid = grid_edges(SIDE)
    g = graph_of(SIDE * SIDE, grid)
    diagonals = {diagonal(SIDE, random.Random(x)) for x in range(200)}
    if mode == DECREMENTAL:
        for e in sorted(diagonals):
            g.insert_edge(*e)
    st = SpannerState(g.copy(), 1, seed=2, mode=mode)
    digest = hashlib.sha256()
    for _ in range(MODE_UPDATES):
        if mode == DECREMENTAL:
            ev = DeleteEdge(*rng.choice(sorted(g.edges())))
        else:
            ev = InsertEdge(*rng.choice(sorted(diagonals - set(g.edges()))))
        apply_update(g, ev)
        st.sp_update(ev)
        assert all(g.has_edge(u, v) for u, v in st.H)
        digest.update(edge_line(st.H) + active_line(st.active))
    return st, digest.hexdigest()


@pytest.mark.parametrize("mode", list(MODE_SPANNER_PINS))
def test_partially_dynamic_spanner_h_and_active_match_their_pins_after_every_update(mode):
    st, digest = replay_mode_spanner(mode)
    assert st.H and not all(st.active.values())
    assert digest == MODE_SPANNER_PINS[mode]
