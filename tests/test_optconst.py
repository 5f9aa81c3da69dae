"""Tests for the constant-bin solver: assignment enumeration, the four
dispatch cases, and the handler geometry for the rarer subcases."""

from fractions import Fraction

import pytest

from rectbin.classify import total_width, vol
from rectbin.errors import GuessFailed, InstanceTooLarge, PreconditionViolated
from rectbin.fileio import serialize_packing
from rectbin.geometry import BinLayout, Instance, Item, Packing, validate_packing
from rectbin.optconst import (
    ConstContext,
    _case_both_heavy,
    _finish_rebuilt,
    _thin_high_repack,
    const_eps,
    enumerate_large_assignments,
    pack_opt_const,
    run_steps_1_to_4,
)
from rectbin.oracle import (
    GeneratorSpec,
    certify_opt,
    gen_instance,
    plant_const_case1,
    plant_const_case2,
    plant_const_case3,
    plant_const_case4,
)

F = Fraction
HALF = F(1, 2)


def items_of(dims):
    return [Item(i, F(w), F(h)) for i, (w, h) in enumerate(dims)]


def squares(n, side=HALF, start=0):
    return [Item(start + i, side, side) for i in range(n)]


class TestContextNumbers:
    def test_eps_values(self):
        assert const_eps(2) == F(1, 322)
        assert const_eps(3) == F(1, 1082)
        assert const_eps(4) == F(1, 2562)

    def test_reserved_strips(self):
        ctx = ConstContext(k=2, ell=2)
        assert ctx.eps == F(1, 322)
        assert ctx.r1 == (F(1), F(8, 322))
        assert ctx.r2 == (F(16, 322), F(314, 322))
        assert ctx.r3 == (F(306, 322), HALF - F(12, 322))

    def test_strips_fit_together(self):
        # the side strip, the top strip and the merged region never overlap
        for k in (2, 3, 4):
            for ell in (2, 3, 4):
                ctx = ConstContext(k=k, ell=ell)
                assert ctx.r2[0] + ctx.r3[0] <= 1
                assert ctx.r3[1] + ctx.r1[1] < 1
                assert ctx.r2[1] + ctx.r1[1] == 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstContext(k=1, ell=2)
        with pytest.raises(ValueError):
            ConstContext(k=3, ell=0)


class TestEnumeration:
    def test_no_large_items(self):
        outs = list(enumerate_large_assignments([], 2))
        assert outs == [((), ())]

    def test_single_item_two_bins(self):
        a = Item(0, F(3, 5), F(3, 5))
        outs = list(enumerate_large_assignments([a], 2))
        assert [tuple(tuple(i.id for i in p) for p in o) for o in outs] == [
            ((0,), ()),
            ((), (0,)),
        ]

    def test_two_items_all_splits(self):
        its = [Item(0, F(3, 5), F(3, 5)), Item(1, F(2, 5), F(2, 5))]
        outs = [tuple(tuple(i.id for i in p) for p in o)
                for o in enumerate_large_assignments(its, 2)]
        assert outs == [((0, 1), ()), ((0,), (1,)), ((1,), (0,)), ((), (0, 1))]

    def test_small_items_hit_the_power_law(self):
        # every subset of four loose squares fits a bin, so nothing prunes
        its = squares(4, F(1, 5))
        assert len(list(enumerate_large_assignments(its, 2))) == 2 ** 4

    def test_two_bigs_cannot_share(self):
        its = squares(2, F(3, 5))
        outs = [tuple(tuple(i.id for i in p) for p in o)
                for o in enumerate_large_assignments(its, 2)]
        assert outs == [((0,), (1,)), ((1,), (0,))]

    def test_symmetry_break_on_three_bins(self):
        # with one item the two interchangeable bins collapse to one choice
        a = Item(0, F(3, 5), F(3, 5))
        outs = list(enumerate_large_assignments([a], 3))
        assert len(outs) == 2

    def test_limit(self):
        its = squares(5, F(1, 5))
        with pytest.raises(InstanceTooLarge):
            list(enumerate_large_assignments(its, 2, enumeration_limit=4))


def first_assignment(instance, ell, eps):
    large = [it for it in instance.items if it.volume > eps]
    return next(enumerate_large_assignments(large, ell))


class TestSteps:
    def test_separation_invariant(self):
        eps = const_eps(3)
        for seed in range(8):
            inst, _ = gen_instance(GeneratorSpec(seed=seed, n=9, ell=2))
            asg = first_assignment(inst, 2, eps)
            try:
                ctx = run_steps_1_to_4(inst, 2, asg)
            except (GuessFailed, InstanceTooLarge):
                continue
            for i in range(1, 2):
                assert all(it.height <= HALF for it in ctx.b_bins[i]
                           if it.volume > eps)
                assert all(it.height > HALF for it in ctx.c_bins[i])
            placed = {it.id for b in ctx.b_bins + ctx.c_bins for it in b}
            loose = {it.id for it in ctx.t_prime}
            assert not placed & loose
            assert placed | loose == {it.id for it in inst.items}

    def test_profit_bin_keeps_assigned_items(self):
        inst, wit = plant_const_case2(0)
        eps = const_eps(3)
        asg = first_assignment(inst, 2, eps)
        ctx = run_steps_1_to_4(inst, 2, asg)
        got = {it.id for it in ctx.b_bins[0]}
        assert {it.id for it in asg[0]} <= got

    def test_profit_bin_volume_bound(self):
        # against the witness decomposition the packed first bin loses at
        # most eps of volume
        eps = const_eps(3)
        for seed in range(5):
            inst, wit = plant_const_case2(seed)
            asg = first_assignment(inst, 2, eps)
            ctx = run_steps_1_to_4(inst, 2, asg)
            lookup = inst.by_id()
            witness_first = [lookup[pl.item_id] for pl in wit.bins[0].placements]
            assert vol(ctx.b_bins[0]) >= vol(witness_first) - eps

    def test_no_tiny_items_means_no_leftovers(self):
        its = squares(4) + [Item(4 + j, F(2, 5), F(2, 5)) for j in range(3)]
        inst = Instance(its)
        asg = first_assignment(inst, 2, const_eps(3))
        ctx = run_steps_1_to_4(inst, 2, asg)
        assert ctx.t_prime == []

    def test_wide_pointer_only_advances_when_full(self):
        its = [Item(0, F(1), F(1)),
               Item(1, F(99, 100), F(1, 2)),
               Item(2, F(11, 20), F(1, 10))]
        its += [Item(3 + j, F(51, 100), F(1, 600)) for j in range(9)]
        inst = Instance(its)
        asg = ((its[0],), (its[1],), (its[2],))
        ctx = run_steps_1_to_4(inst, 3, asg)
        eps = ctx.eps
        spill = [it for it in ctx.b_bins[2] if it.volume <= eps]
        assert spill
        assert vol(ctx.b_bins[1]) > HALF - eps

    def test_high_pointer_only_advances_when_full(self):
        its = [Item(0, F(1), F(1))]
        its += [Item(1 + j, F(33, 100), F(4, 5)) for j in range(3)]
        its += [Item(4, F(1, 5), F(3, 5))]
        its += [Item(5 + j, F(1, 600), F(11, 20)) for j in range(13)]
        inst = Instance(its)
        asg = ((its[0],), tuple(its[1:4]), (its[4],))
        ctx = run_steps_1_to_4(inst, 3, asg, exact_limit=16)
        eps = ctx.eps
        spill = [it for it in ctx.c_bins[2] if it.volume <= eps]
        assert spill
        assert total_width(ctx.c_bins[1]) > 1 - 2 * eps


class TestCaseRouting:
    @pytest.mark.parametrize("plant,want", [
        (plant_const_case1, 1),
        (plant_const_case2, 2),
        (plant_const_case3, 3),
        (plant_const_case4, 4),
    ])
    def test_plants_hit_their_case(self, plant, want):
        for seed in range(10):
            inst, wit = plant(seed)
            assert certify_opt(inst, 2, wit)
            trace = {}
            packing = pack_opt_const(inst, 2, trace=trace)
            report = validate_packing(packing, inst)
            assert report.ok, report.violations[:3]
            assert len(packing.bins) <= 4
            assert trace["case"] == want, seed

    def test_flip_lands_in_an_earlier_case(self):
        inst, _ = plant_const_case4(0)
        trace = {}
        packing = pack_opt_const(inst, 2, trace=trace)
        assert trace.get("flipped") is True
        assert validate_packing(packing, inst).ok

    def test_restack_subcase(self):
        # exact-fit second bin plus one stray tiny square: the tall item gets
        # restacked and the leftover goes through the area packer
        its = squares(4)
        its += [Item(4, F(4995, 10000), F(1)),
                Item(5, F(5005, 10000), F(499, 1000)),
                Item(6, F(5005, 10000), F(499, 1000)),
                Item(7, F(1, 50), F(1, 50))]
        inst = Instance(its)
        trace = {}
        packing = pack_opt_const(inst, 2, trace=trace)
        assert trace["case"] == 2
        assert trace["subcase"] == "restack"
        assert validate_packing(packing, inst).ok
        assert len(packing.bins) <= 4

    def test_migration_stop_subcase(self):
        # the first move commits and soaks up the thin wide strip, the second
        # would strand the sliver columns, so the loop stops early
        its = squares(4)
        its += [Item(4, F(11, 20), F(9, 25)), Item(5, F(11, 20), F(9, 25)),
                Item(6, F(11, 25), F(22, 25)),
                Item(7, F(21, 50), F(1, 4)), Item(8, F(21, 50), F(11, 100))]
        its += [Item(9 + j, F(1, 600), F(11, 20)) for j in range(3)]
        its += [Item(12, F(11, 20), F(1, 600))]
        inst = Instance(its)
        trace = {}
        packing = pack_opt_const(inst, 2, trace=trace)
        assert trace["case"] == 4
        assert trace["subcase"] == "stop"
        assert validate_packing(packing, inst).ok
        assert len(packing.bins) <= 4

    def test_spill_subcase_shows_up_in_the_corpus(self):
        seen = False
        for seed in range(40):
            inst, _ = gen_instance(GeneratorSpec(seed=seed, n=9, ell=2))
            trace = {}
            try:
                pack_opt_const(inst, 2, trace=trace)
            except (GuessFailed, InstanceTooLarge):
                continue
            if trace.get("subcase") == "spill":
                seen = True
                break
        assert seen


def bare_ctx(items, first, k=3, ell=2):
    """Context with the profit bin prebuilt, for driving handlers directly."""
    ctx = ConstContext(k=k, ell=ell)
    ctx.instance = Instance(items)
    layout = BinLayout(1, 1)
    x = F(0)
    for it in first:
        layout.add(it.id, x, F(0))
        x += it.width
    ctx.b_bins = [list(first)] + [[] for _ in range(ell - 1)]
    ctx.c_bins = [[] for _ in range(ell)]
    ctx.b1_layout = layout
    return ctx


class TestHandlerGeometry:
    def test_overfull_high_bin_allows_no_leftovers(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        highs = [Item(1, HALF, F(1)), Item(2, HALF, F(53, 100))]
        ctx = bare_ctx(first + highs, first)
        ctx.c_bins[1] = highs
        ctx.t_prime = []
        packing = _case_both_heavy(ctx, {}, 10)
        assert validate_packing(packing, ctx.instance).ok

        ctx = bare_ctx(first + highs + [Item(3, F(1, 100), F(1, 100))], first)
        ctx.c_bins[1] = highs
        ctx.t_prime = [ctx.instance.by_id()[3]]
        with pytest.raises(GuessFailed):
            _case_both_heavy(ctx, {}, 10)

    def test_shift_moves_the_shallow_stack(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        highs = [Item(1, F(3, 10), F(7, 10)), Item(2, HALF, F(29, 50))]
        loose = [Item(3, F(3, 5), F(1, 1000)), Item(4, F(1, 100), F(1, 100))]
        ctx = bare_ctx(first + highs + loose, first)
        ctx.c_bins[1] = highs
        lookup = ctx.instance.by_id()
        ctx.t_prime = [lookup[3], lookup[4]]
        trace = {}
        packing = _case_both_heavy(ctx, {}, 10, trace)
        assert trace["subcase"] == "shift"
        assert validate_packing(packing, ctx.instance).ok

    def test_rebuilt_overflow_uses_the_reserved_strips(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        overflow = [Item(1, F(3, 10), F(503, 1000))]
        loose = [Item(2, F(3, 5), F(1, 1000)),
                 Item(3, F(1, 100), F(49, 100)),
                 Item(4, F(1, 20), F(1, 20))]
        ctx = bare_ctx(first + overflow + loose, first)
        ctx.c_bins[0] = overflow
        lookup = ctx.instance.by_id()
        ctx.t_prime = [lookup[i] for i in (2, 3, 4)]
        packing = _finish_rebuilt(ctx, {}, 10)
        assert validate_packing(packing, ctx.instance).ok

    def test_thin_high_repack_restacks_and_absorbs(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        thin = [Item(1, F(1, 100), F(9, 10)), Item(2, F(1, 100), F(4, 5))]
        side = [Item(3, F(3, 10), F(3, 10))]
        loose = [Item(4, F(1, 100), F(1, 100))]
        ctx = bare_ctx(first + thin + side + loose, first)
        ctx.b_bins[1] = side
        ctx.c_bins[1] = thin
        ctx.t_prime = loose
        packing = _thin_high_repack(ctx, {}, 10)
        assert validate_packing(packing, ctx.instance).ok
        stacks = [b for b in packing.bins
                  if {p.item_id for p in b.placements} == {1, 2}]
        assert stacks


class TestSoundness:
    def test_generated_two_bin_instances(self):
        ok = 0
        for seed in range(25):
            inst, _ = gen_instance(GeneratorSpec(seed=seed, n=9, ell=2))
            try:
                packing = pack_opt_const(inst, 2)
            except (GuessFailed, InstanceTooLarge):
                continue
            report = validate_packing(packing, inst)
            assert report.ok, (seed, report.violations[:3])
            assert len(packing.bins) <= 4
            ok += 1
        assert ok >= 20

    def test_generated_three_bin_instances(self):
        ok = 0
        for seed in range(10):
            inst, _ = gen_instance(GeneratorSpec(seed=seed, n=11, ell=3))
            try:
                packing = pack_opt_const(inst, 3, exact_limit=12)
            except (GuessFailed, InstanceTooLarge):
                continue
            report = validate_packing(packing, inst)
            assert report.ok, (seed, report.violations[:3])
            assert len(packing.bins) <= 6
            ok += 1
        assert ok >= 8

    def test_union_of_two_single_bin_sets(self):
        for seed in range(6):
            a, _ = gen_instance(GeneratorSpec(seed=seed, n=5, ell=1))
            b, _ = gen_instance(GeneratorSpec(seed=1000 + seed, n=5, ell=1))
            shift = max(it.id for it in a.items) + 1
            merged = Instance(
                list(a.items)
                + [Item(it.id + shift, it.width, it.height) for it in b.items]
            )
            packing = pack_opt_const(merged, 2, exact_limit=14)
            report = validate_packing(packing, merged)
            assert report.ok, (seed, report.violations[:3])
            assert len(packing.bins) <= 4


class TestEdgesAndDeterminism:
    def test_single_bin_request_rejected(self):
        inst = Instance([Item(0, HALF, HALF)])
        with pytest.raises(PreconditionViolated):
            pack_opt_const(inst, 1)

    def test_empty_instance(self):
        assert pack_opt_const(Instance([]), 2).bins == []

    def test_too_many_large_items(self):
        inst = Instance(squares(6, F(1, 5)))
        with pytest.raises(InstanceTooLarge):
            pack_opt_const(inst, 2, enumeration_limit=5)

    def test_repeat_runs_agree(self):
        inst, _ = plant_const_case3(7)
        def snap(p):
            return [
                [(pl.item_id, pl.x, pl.y) for pl in b.placements]
                for b in p.bins
            ]
        first = snap(pack_opt_const(inst, 2))
        second = snap(pack_opt_const(inst, 2))
        assert first == second


# Byte-exact packings: they pin the assignment enumeration order and every
# step that lays out the guessed bins.
CONST_GOLDEN = [
    (plant_const_case1, 0,
     "bins 2\nbin 0\n0 0 0\n1 0 1/2\n2 1/2 0\n3 1/2 1/2\nbin 1\n4 0 0\n5 39/100 0\n"
     "6 0 1521/2500\n7 39/100 1521/2500\n8 947/2300 1521/2500\n"),
    (plant_const_case4, 1,
     "bins 3\nbin 0\n0 0 0\n1 0 1/2\n2 1/2 0\n3 1/2 1/2\nbin 1\n6 0 0\n7 0 1/600\n"
     "8 0 1/300\n9 0 1/200\nbin 2\n4 0 0\n5 0 7/25\n"),
]


@pytest.mark.parametrize("plant, seed, expected", CONST_GOLDEN)
def test_pack_opt_const_golden_output(plant, seed, expected):
    inst, _ = plant(seed)
    assert serialize_packing(pack_opt_const(inst, 2)) == expected
