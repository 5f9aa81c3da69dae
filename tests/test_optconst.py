"""Tests for the constant-bin solver: assignment enumeration, the four
dispatch cases, and the handler geometry for the rarer subcases."""

from fractions import Fraction

import pytest

from rectbin.classify import total_width, vol
import rectbin.optconst
from rectbin.cli import pack_auto
from rectbin.config import SolveConfig
from rectbin.errors import GuessFailed, InstanceTooLarge, PackingStuck, PreconditionViolated
from rectbin.fileio import serialize_packing
from rectbin.geometry import (
    BinLayout,
    Grid,
    Instance,
    Item,
    Packing,
    Placement,
    validate_packing,
)
from rectbin.knapsack import UnitBinMemo
from rectbin.optconst import (
    ConstContext,
    _case_both_heavy,
    _fill,
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


class TestFill:
    # widths 3/5, 1/2, 1/5, 1/10 against a cap of 1 in three slots
    ITEMS = [Item(i, w, HALF) for i, w in enumerate((F(3, 5), HALF, F(1, 5), F(1, 10)))]

    def deal(self, first_fit, load=None, slots=(0, 1, 2)):
        bins = [[] for _ in range(3)]
        load = [F(0)] * 3 if load is None else load
        left = _fill(self.ITEMS, bins, load, lambda it: it.width, 1, slots, first_fit)
        return [[it.id for it in b] for b in bins], load, [it.id for it in left]

    def test_next_fit_never_goes_back(self):
        # 1 overflows slot 0, so 2 and 3 follow it to slot 1 although slot 0 has room
        assert self.deal(False) == ([[0], [1, 2, 3], []], [F(3, 5), F(4, 5), 0], [])

    def test_first_fit_goes_back(self):
        assert self.deal(True) == ([[0, 2, 3], [1], []], [F(9, 10), HALF, 0], [])

    def test_leftovers_and_the_slot_order(self):
        # only slots 2 and 0, in that order, from the given loads: next fit
        # gives up once it has passed the last slot
        for first_fit, bins, left in ((False, [[0], [], []], [1, 2, 3]),
                                      (True, [[0, 2], [], [3]], [1])):
            got = self.deal(first_fit, [F(0), F(0), F(17, 20)], (2, 0))
            assert got[0] == bins and got[2] == left
        assert _fill([], [[]], [F(0)], lambda it: it.width, 1, [0]) == []


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

    def test_whole_bin_run_first_fits_the_tiny_smalls(self):
        # bin 1 keeps its large set whole; the tiny smalls go largest first
        # to the first of bins 2 and 3 that stays within half its area, so
        # 8 returns to bin 2 after 6 went on to bin 3, and 7 fits neither
        its = [Item(0, F(1), F(1)),
               Item(1, F(1, 5), F(3, 5)), Item(2, F(3, 5), F(1, 5)),
               Item(3, F(499, 500), HALF), Item(4, F(499, 500), HALF),
               Item(5, F(1, 40), F(1, 30)), Item(6, F(1, 40), F(1, 30)),
               Item(7, F(1, 40), F(1, 40)), Item(8, F(1, 100), F(1, 100)),
               Item(9, F(1, 1000), F(3, 5))]
        inst = Instance(its)
        asg = ((its[0],), (its[1], its[2]), (its[3],), (its[4],))
        ctx = run_steps_1_to_4(inst, 4, asg, whole_bin=1)
        assert [[it.id for it in b] for b in ctx.b_bins] == [[0], [1, 2], [3, 5, 8], [4, 6]]
        assert [[it.id for it in c] for c in ctx.c_bins] == [[], [9], [], []]
        assert [it.id for it in ctx.t_prime] == [7]
        assert list(ctx.special) == [("B", 1)]


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
            packing = pack_opt_const(inst, 2)
            report = validate_packing(packing, inst)
            assert report.ok, report.violations[:3]
            assert len(packing.bins) <= 4
            assert packing.path[0] == f"case{want}", seed

    def test_flip_lands_in_an_earlier_case(self):
        inst, _ = plant_const_case4(0)
        packing = pack_opt_const(inst, 2)
        assert packing.path[:3] == ("case4", "flip", "flipped")
        assert validate_packing(packing, inst).ok

    def test_failed_assembly_check_is_a_bug(self, monkeypatch):
        # a bin assembly that stacks every item on the origin: pack_auto
        # rejects the packing the flipped case returns, on the original
        # instance, instead of trying a further guess or the fallback
        assemble = rectbin.optconst._realize

        def at_origin(ctx, *path):
            packing = assemble(ctx, *path)
            return Packing([BinLayout(b.width, b.height,
                                      [Placement(p.item_id, 0, 0) for p in b.placements])
                            for b in packing.bins], packing.path)

        monkeypatch.setattr(rectbin.optconst, "_realize", at_origin)
        inst, _ = plant_const_case4(0)
        assert not validate_packing(pack_opt_const(inst, 2), inst).ok  # returned unchecked
        with pytest.raises(PackingStuck, match="overlap") as info:
            pack_auto(inst, SolveConfig())
        assert str(info.value).startswith(
            "const2 packing (path case4/flip/flipped/spill) failed validation")

    def test_restack_subcase(self):
        # exact-fit second bin plus one stray tiny square: the tall item gets
        # restacked and the leftover goes through the area packer
        its = squares(4)
        its += [Item(4, F(4995, 10000), F(1)),
                Item(5, F(5005, 10000), F(499, 1000)),
                Item(6, F(5005, 10000), F(499, 1000)),
                Item(7, F(1, 50), F(1, 50))]
        inst = Instance(its)
        packing = pack_opt_const(inst, 2)
        assert packing.path == ("case2", "restack")
        assert validate_packing(packing, inst).ok
        assert len(packing.bins) <= 4
        assert serialize_packing(packing) == (
            "bins 4\nbin 0\n0 0 0\n1 0 1/2\n2 1/2 0\n3 1/2 1/2\n"
            "bin 1\n5 0 0\n6 0 499/1000\nbin 2\n7 0 0\nbin 3\n4 0 0\n")

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
        packing = pack_opt_const(inst, 2)
        assert packing.path == ("case4", "stop")
        assert validate_packing(packing, inst).ok
        assert len(packing.bins) <= 4
        assert serialize_packing(packing) == (
            "bins 4\nbin 0\n0 0 0\n1 0 1/2\n2 1/2 0\n3 1/2 1/2\n"
            "bin 1\n4 0 0\n5 0 9/25\n12 0 18/25\nbin 2\n8 0 0\n"
            "bin 3\n6 0 0\n9 11/25 0\n10 53/120 0\n11 133/300 0\n7 89/200 0\n")

    def test_spill_subcase_shows_up_in_the_corpus(self):
        seen = False
        for seed in range(40):
            inst, _ = gen_instance(GeneratorSpec(seed=seed, n=9, ell=2))
            try:
                packing = pack_opt_const(inst, 2)
            except (GuessFailed, InstanceTooLarge):
                continue
            if "spill" in packing.path:
                seen = True
                break
        assert seen


def bare_ctx(items, first, k=3, ell=2):
    """Context with the profit bin prebuilt, for driving handlers directly."""
    ctx = ConstContext(k=k, ell=ell, cache=UnitBinMemo(Grid.of(items)))
    ctx.instance = Instance(items)
    layout = BinLayout(1, 1)
    layout.row(first, 0, 0)
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
        packing = _case_both_heavy(ctx)
        assert validate_packing(packing, ctx.instance).ok
        assert packing.path == ("full",)
        assert serialize_packing(packing) == "bins 2\nbin 0\n0 0 0\nbin 1\n1 0 0\n2 1/2 0\n"

        ctx = bare_ctx(first + highs + [Item(3, F(1, 100), F(1, 100))], first)
        ctx.c_bins[1] = highs
        ctx.t_prime = [ctx.instance.by_id()[3]]
        with pytest.raises(GuessFailed):
            _case_both_heavy(ctx)

    def test_shift_moves_the_shallow_stack(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        highs = [Item(1, F(3, 10), F(7, 10)), Item(2, HALF, F(29, 50))]
        loose = [Item(3, F(3, 5), F(1, 1000)), Item(4, F(1, 100), F(1, 100))]
        ctx = bare_ctx(first + highs + loose, first)
        ctx.c_bins[1] = highs
        lookup = ctx.instance.by_id()
        ctx.t_prime = [lookup[3], lookup[4]]
        packing = _case_both_heavy(ctx)
        assert packing.path == ("shift",)
        assert validate_packing(packing, ctx.instance).ok
        assert serialize_packing(packing) == (
            "bins 3\nbin 0\n0 0 0\nbin 1\n1 0 0\n2 3/10 0\n3 0 3/4\nbin 2\n4 0 0\n")

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
        packing = _finish_rebuilt(ctx)
        assert validate_packing(packing, ctx.instance).ok
        # the top strip, the right strip, and the area packer above the overflow
        assert serialize_packing(packing) == (
            "bins 2\nbin 0\n0 0 0\n"
            "bin 1\n1 0 0\n2 0 537/541\n3 533/541 0\n4 0 503/1000\n")

    def test_thin_high_repack_restacks_and_absorbs(self):
        first = [Item(0, F(9, 10), F(9, 10))]
        thin = [Item(1, F(1, 100), F(9, 10)), Item(2, F(1, 100), F(4, 5))]
        side = [Item(3, F(3, 10), F(3, 10))]
        loose = [Item(4, F(1, 100), F(1, 100))]
        ctx = bare_ctx(first + thin + side + loose, first)
        ctx.b_bins[1] = side
        ctx.c_bins[1] = thin
        ctx.t_prime = loose
        packing = _thin_high_repack(ctx)
        assert validate_packing(packing, ctx.instance).ok
        assert serialize_packing(packing) == (
            "bins 3\nbin 0\n0 0 0\nbin 1\n3 0 0\n4 0 3/10\nbin 2\n1 0 0\n2 1/100 0\n")
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
        with pytest.raises(PreconditionViolated) as info:
            pack_opt_const(inst, 1)
        assert not isinstance(info.value, GuessFailed)  # a caller bug

    def test_assignment_part_count_is_a_caller_bug(self):
        inst = Instance([Item(0, HALF, HALF)])
        with pytest.raises(PreconditionViolated) as info:
            run_steps_1_to_4(inst, 2, [inst.items])
        assert not isinstance(info.value, GuessFailed)

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
