"""Gadget generators replayed against exact BFS, plus harness plumbing."""

import math
import random

import pytest

from dynsp.gadgets import (
    BfsProvider,
    GadgetScript,
    OuMvInstance,
    ParamDomain,
    gen_kcycle,
    gen_oumv_decremental,
    gen_oumv_fully,
    gen_oumv_incremental,
    harness_run,
    kcycle_exists,
)
from dynsp.graph import (
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    InsertEdge,
    PhaseMark,
    UpdateScript,
)
from dynsp.spanner_comb import RebuildSpanner


def random_instance(n, rng, phases=None):
    M = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
    pairs = tuple(
        (
            tuple(rng.randint(0, 1) for _ in range(n)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        for _ in range(phases if phases is not None else n)
    )
    return OuMvInstance(M, pairs)


@pytest.mark.parametrize("seed", range(6))
def test_oumv_generators_sound_against_bfs(seed):
    rng = random.Random(seed)
    inst = random_instance(rng.choice([2, 3, 4]), rng)
    for gs in (
        gen_oumv_fully(inst, 0.5, 2),
        gen_oumv_incremental(inst, 1),
        gen_oumv_decremental(inst, 1),
    ):
        report = harness_run(gs, BfsProvider)
        assert report.mismatches == [], gs.label
        assert report.bits == gs.expected_bits


def test_fully_dynamic_phase_distances_match_the_threshold_gap():
    inst = OuMvInstance(((1, 0), (0, 1)), (((1, 0), (1, 0)), ((1, 0), (0, 1))))
    gs = gen_oumv_fully(inst, 0, 0)  # c = 1
    report = harness_run(gs, BfsProvider)
    assert report.phases[0].estimate == 3 and report.phases[0].bit == 1
    assert report.phases[1].estimate >= 5 and report.phases[1].bit == 0


def test_fully_dynamic_scales_with_copies():
    inst = OuMvInstance(((1,),), (((1,), (1,)),))
    gs = gen_oumv_fully(inst, 0.5, 3)
    c = math.ceil(3 / (2 - 1.5)) + 1
    assert gs.phase_thresholds == [5 * c]
    report = harness_run(gs, BfsProvider)
    assert report.phases[0].estimate == 3 * c


def test_zero_matrix_gives_zero_bits():
    rng = random.Random(1)
    n = 3
    M = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    pairs = tuple(
        (tuple(1 for _ in range(n)), tuple(1 for _ in range(n))) for _ in range(n)
    )
    inst = OuMvInstance(M, pairs)
    for gs in (gen_oumv_fully(inst, 0, 1), gen_oumv_incremental(inst, 0),
               gen_oumv_decremental(inst, 0)):
        report = harness_run(gs, BfsProvider)
        assert report.bits == [0] * n


def test_incremental_scripts_never_delete():
    from dynsp.graph import DeleteEdge

    rng = random.Random(2)
    gs = gen_oumv_incremental(random_instance(3, rng), 1)
    assert not any(isinstance(ev, DeleteEdge) for ev in gs.script.events)


def test_param_domains():
    rng = random.Random(3)
    inst = random_instance(2, rng)
    with pytest.raises(ParamDomain):
        gen_oumv_fully(inst, 0.7, 0)
    with pytest.raises(ParamDomain):
        gen_oumv_fully(inst, 0, -1)
    with pytest.raises(ParamDomain):
        gen_oumv_decremental(random_instance(3, rng, phases=2), 0)
    with pytest.raises(ParamDomain):
        OuMvInstance(((0, 1),), ())
    tri = DynamicGraph(3, directed=True)
    with pytest.raises(ParamDomain):
        gen_kcycle(tri, 4, {"kind": "fully", "c": 1})
    with pytest.raises(ParamDomain):
        gen_kcycle(DynamicGraph(3), 3, {"kind": "fully", "c": 1})


def test_kcycle_triangle_detected_in_every_mode():
    tri = DynamicGraph(3, directed=True)
    tri.insert_edge(0, 1)
    tri.insert_edge(1, 2)
    tri.insert_edge(2, 0)
    assert kcycle_exists(tri, 3)
    for mode in (
        {"kind": "fully", "c": 1},
        {"kind": "incremental", "beta": 1},
        {"kind": "decremental", "beta": 1},
    ):
        scripts = gen_kcycle(tri, 3, mode, seed=4)
        assert len(scripts) == 27
        detected = False
        for gs in scripts:
            report = harness_run(gs, BfsProvider)
            assert report.mismatches == [], gs.label
            detected = detected or any(report.bits)
        assert detected, mode


def test_kcycle_dag_never_detects():
    dag = DynamicGraph(5, directed=True)
    for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]:
        dag.insert_edge(u, v)
    assert not kcycle_exists(dag, 3)
    for gs in gen_kcycle(dag, 3, {"kind": "fully", "c": 2}, seed=1):
        report = harness_run(gs, BfsProvider)
        assert report.mismatches == [] and not any(report.bits)


def test_kcycle_single_edge_is_trivially_negative():
    g = DynamicGraph(2, directed=True)
    g.insert_edge(0, 1)
    for gs in gen_kcycle(g, 3, {"kind": "fully", "c": 1}, seed=0)[:3]:
        report = harness_run(gs, BfsProvider)
        assert not any(report.bits)


def test_infinite_provider_misses_exactly_the_ones():
    class Infinite:
        def __init__(self, g):
            pass

        def apply(self, ev):
            pass

        def dist(self, u, v):
            return math.inf

    rng = random.Random(5)
    inst = random_instance(3, rng)
    gs = gen_oumv_fully(inst, 0, 1)
    report = harness_run(gs, Infinite)
    assert report.bits == [0] * len(gs.expected_bits)
    assert [m.phase for m in report.mismatches] == [
        i for i, b in enumerate(gs.expected_bits) if b == 1
    ]


def test_spanner_provider_with_dominating_parameters():
    beta = RebuildSpanner(DynamicGraph(4), 0.5, 0, k=0).beta_certificate
    rng = random.Random(6)
    inst = random_instance(2, rng)
    gs = gen_oumv_fully(inst, 0.5, beta)
    report = harness_run(gs, lambda g: RebuildSpanner(g, 0.5, 1, k=0))
    assert report.mismatches == []


def test_a_restore_mark_after_an_unrestored_phase_is_a_value_error():
    events = [
        InsertEdge(1, 2), DistQuery(0, 2), PhaseMark(0, 1), DeleteEdge(1, 2),  # restored
        InsertEdge(0, 2), DistQuery(0, 2), PhaseMark(1, 1),  # left in place
    ]
    script = UpdateScript(n=3, directed=False, initial_edges=[(0, 1)], events=events)
    report = harness_run(GadgetScript(script, [3, 3], [1, 1], (0, 2), [4]), BfsProvider)
    assert report.bits == [1, 1]
    gs = GadgetScript(script, [3, 3], [1, 1], (0, 2), [4, 7])
    with pytest.raises(ValueError, match=r"^restore mark after event 6: the graph was not restored"):
        harness_run(gs, BfsProvider)
