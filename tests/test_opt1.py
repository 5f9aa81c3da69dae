import random
import signal
from fractions import Fraction

import pytest

from rectbin.classify import (
    classify,
    delta_threshold,
    find_feasible_delta,
    total_height,
    total_width,
)
import rectbin.opt1
from rectbin.cli import main, pack_auto
from rectbin.config import SolveConfig
from rectbin.errors import (
    ConditionViolated,
    GuessFailed,
    InstanceTooLarge,
    PackingStuck,
    PreconditionViolated,
)
from rectbin.fileio import serialize_instance, serialize_packing
from rectbin.geometry import (
    BinLayout,
    Grid,
    Instance,
    Item,
    Placement,
    transpose_instance,
    validate_bin,
    validate_packing,
)
from rectbin.knapsack import exact_pack_single_region, max_area_pack
from rectbin.opt1 import (
    pack_large_w,
    pack_opt1,
    pack_small_height,
    pack_small_w,
    pack_stack_plus_small,
    pack_stack_plus_small_transposed,
    pack_wide_high,
)
from rectbin.oracle import (
    GeneratorSpec,
    gen_instance,
    plant_const_case3,
    plant_delta_height,
    plant_delta_width,
    plant_large_w,
    plant_small_w_case1,
    plant_small_w_case2,
    plant_small_w_case3,
)
from rectbin.steinberg import steinberg_condition

EPS = Fraction(1, 256)


def items_of(dims):
    return [Item(i, Fraction(w), Fraction(h)) for i, (w, h) in enumerate(dims)]


class TestSmallHeight:
    def test_single_full_square(self):
        inst = Instance([Item(0, 1, 1)])
        packing = pack_opt1(inst, EPS)
        assert len(packing.bins) == 2
        assert packing.bins[0].item_ids() == [0]
        assert packing.bins[1].placements == []
        assert validate_packing(packing, inst).ok

    def test_all_small_items_one_bin(self):
        inst = Instance(items_of([("3/10", "3/10")] * 6))
        packing = pack_small_height(inst, Fraction(1, 2), EPS)
        assert validate_packing(packing, inst).ok
        assert packing.bins[1].placements == []

    def test_delta_out_of_range(self):
        inst = Instance(items_of([("1/4", "1/4")]))
        with pytest.raises(PreconditionViolated) as info:
            pack_small_height(inst, Fraction(3, 4), EPS)
        assert not isinstance(info.value, GuessFailed)  # a caller bug

    def test_tall_cutoff_stack_rejected(self):
        # two items wider than the cutoff with a tall joint stack
        inst = Instance(items_of([("9/10", "2/5"), ("9/10", "2/5")]))
        with pytest.raises(PreconditionViolated) as info:
            pack_small_height(inst, Fraction(1, 5), EPS)
        assert not isinstance(info.value, GuessFailed)

    def test_generated_single_bin_instances(self):
        packed = 0
        for seed in range(100):
            inst, _ = gen_instance(GeneratorSpec(seed, 5 + seed % 6, 1))
            delta_found = pack_opt1(inst, EPS, exact_limit=12)
            assert validate_packing(delta_found, inst).ok
            assert len(delta_found.bins) <= 2
            packed += 1
        assert packed == 100


class TestWideHigh:
    def test_empty_high(self):
        wide = items_of([("3/5", "1/10"), ("11/20", "1/5")])
        layout, chosen = pack_wide_high(wide, [], EPS, Grid.of(wide))
        assert chosen == []
        assert validate_bin(layout, {it.id: it for it in wide}).ok

    def test_two_high_beside_stack(self):
        wide = items_of([("3/5", "1/10")])
        high = [Item(10, Fraction(1, 10), Fraction(3, 5)),
                Item(11, Fraction(1, 10), Fraction(3, 5))]
        combined = exact_pack_single_region(wide + high, 1, 1)
        assert combined is not None
        layout, chosen = pack_wide_high(wide, high, EPS, Grid.of(wide + high))
        assert total_width(chosen) == Fraction(1, 5)
        assert total_width(chosen) > total_width(high) / 2 - EPS

    def test_thin_high_items_greedy(self):
        wide = items_of([("3/5", "1/4")])
        thin = [Item(20 + i, Fraction(1, 512), Fraction(3, 5)) for i in range(6)]
        layout, chosen = pack_wide_high(wide, thin, EPS, Grid.of(wide + thin))
        assert total_width(chosen) > total_width(thin) / 2 - EPS
        assert chosen, "greedy pass should have inserted thin items"

    def test_guarantee_on_random_sets(self):
        rng = random.Random(20260822)
        successes = 0
        for _ in range(60):
            wides = [Item(i, Fraction(rng.randint(51, 90), 100), Fraction(rng.randint(5, 20), 100))
                     for i in range(rng.randint(1, 3))]
            highs = [Item(10 + j, Fraction(rng.randint(2, 20), 100), Fraction(rng.randint(51, 90), 100))
                     for j in range(rng.randint(1, 4))]
            try:
                layout, chosen = pack_wide_high(wides, highs, EPS, Grid.of(wides + highs))
            except GuessFailed:
                continue
            successes += 1
            assert total_width(chosen) > total_width(highs) / 2 - EPS
            assert validate_bin(layout, {it.id: it for it in wides + highs}).ok
        assert successes >= 30

    def test_deterministic(self):
        wide = items_of([("11/20", "1/5")])
        high = [Item(5, Fraction(1, 5), Fraction(3, 5)), Item(6, Fraction(1, 8), Fraction(7, 10))]
        a = pack_wide_high(wide, high, EPS, Grid.of(wide + high))
        b = pack_wide_high(wide, high, EPS, Grid.of(wide + high))
        assert a[0].placements == b[0].placements and a[1] == b[1]


class TestLargeW:
    def test_planted_instances(self):
        for seed in range(30):
            inst, _ = plant_large_w(seed)
            packing = pack_large_w(inst, EPS)
            assert len(packing.bins) == 2
            assert validate_packing(packing, inst).ok

    def test_wide_leftover_guard(self):
        # high row just under full width; only one substantial subset fits
        # beside the tall stack, leaving more than half the width outside
        inst = Instance([
            Item(0, Fraction(251, 500), Fraction(1, 2)),
            Item(1, Fraction(251, 500), Fraction(1, 2)),
            Item(2, Fraction(497, 1000), Fraction(51, 100)),
            Item(3, Fraction(13, 50), Fraction(51, 100)),
            Item(4, Fraction(121, 500), Fraction(51, 100)),
        ])
        with pytest.raises(GuessFailed):
            pack_large_w(inst, EPS)

    def test_needs_both_classes(self):
        inst = Instance(items_of([("3/5", "1/4")]))
        with pytest.raises(PreconditionViolated):
            pack_large_w(inst, EPS)


class TestStackPlusSmall:
    def test_stack_only(self):
        wide = items_of([("3/4", "1/4"), ("3/5", "1/5")])
        layout = pack_stack_plus_small(wide, [])
        assert validate_bin(layout, {it.id: it for it in wide}).ok

    def test_boundary_volume(self):
        wide = items_of([("3/4", "1/2")])
        rest = [Item(1 + i, Fraction(1, 4), Fraction(1, 4)) for i in range(4)]
        layout = pack_stack_plus_small(wide, rest)
        everything = wide + rest
        assert validate_bin(layout, {it.id: it for it in everything}).ok
        assert sorted(layout.item_ids()) == [0, 1, 2, 3, 4]

    def test_rejects_tall_rest(self):
        wide = items_of([("3/4", "1/2")])
        with pytest.raises(PreconditionViolated):
            pack_stack_plus_small(wide, [Item(9, Fraction(1, 4), Fraction(3, 5))])

    def test_rejects_volume_overflow(self):
        wide = items_of([("3/4", "1/2")])
        rest = [Item(1 + i, Fraction(1, 4), Fraction(1, 4)) for i in range(5)]
        with pytest.raises(PreconditionViolated):
            pack_stack_plus_small(wide, rest)

    def test_random_bounded_rest(self):
        rng = random.Random(7)
        for _ in range(80):
            hw = Fraction(rng.randint(10, 60), 100)
            wide = [Item(0, Fraction(rng.randint(51, 95), 100), hw)]
            budget = Fraction(1, 2) - hw / 2
            rest = []
            used = Fraction(0)
            for j in range(rng.randint(0, 6)):
                w = Fraction(rng.randint(5, 50), 100)
                h = Fraction(rng.randint(5, 100 - int(hw * 100)), 100)
                if used + w * h > budget:
                    break
                rest.append(Item(1 + j, w, h))
                used += w * h
            layout = pack_stack_plus_small(wide, rest)
            assert validate_bin(layout, {it.id: it for it in wide + rest}).ok

    def test_transposed_variant(self):
        high = items_of([("1/4", "3/4")])
        rest = [Item(5, Fraction(1, 5), Fraction(1, 3))]
        layout = pack_stack_plus_small_transposed(high, rest)
        assert validate_bin(layout, {it.id: it for it in high + rest}).ok
        placed = {p.item_id: p for p in layout.placements}
        assert placed[0].x == 0  # stack at the left edge


class TestSmallW:
    def test_case_routing(self):
        for case, plant in [(1, plant_small_w_case1), (2, plant_small_w_case2),
                            (3, plant_small_w_case3)]:
            for seed in range(25):
                inst, _ = plant(seed)
                packing = pack_small_w(inst, EPS)
                assert packing.path == (f"case{case}",)
                assert len(packing.bins) == 2
                assert validate_packing(packing, inst).ok

    def test_low_stack_skips_case_1(self):
        # the half-tall band is empty when the wide stack stays below 1/2
        inst = Instance([
            Item(0, Fraction(51, 100), Fraction(3, 10)),
            Item(1, Fraction(1, 10), Fraction(11, 20)),
            Item(2, Fraction(1, 4), Fraction(2, 5)),
            Item(3, Fraction(1, 4), Fraction(2, 5)),
        ])
        packing = pack_small_w(inst, EPS)
        assert packing.path in (("case2",), ("case3",))
        assert validate_packing(packing, inst).ok

    def test_case3_split_volumes_within_capacity(self):
        for seed in range(10):
            inst, _ = plant_small_w_case3(seed)
            packing = pack_small_w(inst, EPS)
            assert packing.path == ("case3",)
            classes = classify(inst)
            small_ids = {it.id for it in classes.small}
            by_id = inst.by_id()
            v1, v2 = (sum((by_id[i].volume for i in b.item_ids() if i in small_ids), Fraction(0))
                      for b in packing.bins)
            assert v1 <= Fraction(1, 2) - sum((it.height for it in classes.wide), Fraction(0)) / 2
            assert v2 <= Fraction(1, 2) - total_width(classes.high) / 2

    def test_precondition(self):
        inst = Instance(items_of([("3/5", "1/4"), ("1/4", "3/5"), ("3/10", "3/5")]))
        # w(H) = 0.55 > 1/2: not this branch's territory
        with pytest.raises(PreconditionViolated):
            pack_small_w(inst, EPS)


# a stack of height 1/2, then strip items one too tall and five over the
# volume bound; single-class instances for the wide/high branches
STACK = items_of([("3/4", "1/2")])
TALL_REST = [Item(9, Fraction(1, 4), Fraction(3, 5))]
HEAVY_REST = [Item(1 + i, Fraction(1, 4), Fraction(1, 4)) for i in range(5)]
WIDE_ONLY = Instance(items_of([("3/5", "1/4")]))
HIGH_ONLY = Instance(items_of([("1/4", "3/5")]))


class TestRefusals:
    """A packer whose sufficient condition fails raises ConditionViolated,
    which both except clauses catch."""

    @pytest.mark.parametrize("caught", [GuessFailed, PreconditionViolated])
    @pytest.mark.parametrize("refused", [
        pytest.param(lambda: pack_stack_plus_small(STACK, TALL_REST), id="strip_item_too_tall"),
        pytest.param(lambda: pack_stack_plus_small(STACK, HEAVY_REST), id="strip_volume"),
        pytest.param(lambda: pack_large_w(WIDE_ONLY, EPS), id="large_w_no_high"),
        pytest.param(lambda: pack_large_w(HIGH_ONLY, EPS), id="large_w_no_wide"),
        pytest.param(lambda: pack_small_w(WIDE_ONLY, EPS), id="small_w_no_high"),
        pytest.param(lambda: pack_small_w(HIGH_ONLY, EPS), id="small_w_no_wide"),
    ])
    def test_refused_condition_is_a_failed_guess(self, refused, caught):
        with pytest.raises(caught) as info:
            refused()
        assert isinstance(info.value, ConditionViolated)


class TestDispatch:
    def test_branch_trace_on_plants(self):
        for plant, branch in [(plant_delta_width, "delta_width"),
                              (plant_delta_height, "delta_height")]:
            for seed in range(20):
                inst, _ = plant(seed)
                packing = pack_opt1(inst, EPS, exact_limit=12)
                assert packing.path == (branch,)
                assert validate_packing(packing, inst).ok

    def test_failed_assembly_check_is_a_bug(self, monkeypatch, tmp_path, capsys):
        # six half squares: the cutoff branch leaves two of them to the area
        # packer for bin 2; put both on one spot and the check in pack_auto,
        # not a refuted guess, has to report it
        area_packer = rectbin.opt1.steinberg_pack

        def at_origin(items, a=1, b=1):
            layout = area_packer(items, a, b)
            return BinLayout(layout.width, layout.height,
                             [Placement(p.item_id, 0, 0) for p in layout.placements])

        monkeypatch.setattr(rectbin.opt1, "steinberg_pack", at_origin)
        inst = Instance([Item(i, Fraction(1, 2), Fraction(1, 2)) for i in range(6)])
        assert not validate_packing(pack_opt1(inst, EPS), inst).ok  # returned unchecked
        with pytest.raises(PackingStuck, match="overlap") as info:
            pack_auto(inst, SolveConfig())
        assert str(info.value).startswith("opt1 packing (path delta_width) failed validation")

        infile, out = tmp_path / "half.inst", tmp_path / "half.pack"
        infile.write_text(serialize_instance(inst))
        assert main(["pack", "--in", str(infile), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: opt1 packing") and "overlap" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_never_invalid_on_two_bin_instances(self):
        refused = 0
        for seed in range(40):
            inst, _ = gen_instance(GeneratorSpec(seed, 6, 2))
            try:
                packing = pack_opt1(inst, EPS, exact_limit=12)
            except GuessFailed:
                refused += 1
                continue
            assert validate_packing(packing, inst).ok
        # a two-bin split can still happen to fit in two bins here; the
        # contract is only that failures are loud and successes validate
        assert refused >= 0

    def test_empty_instance(self):
        packing = pack_opt1(Instance([]), EPS)
        assert packing.bins == []

    def test_deterministic(self):
        inst, _ = gen_instance(GeneratorSpec(11, 8, 1))
        a = pack_opt1(inst, EPS, exact_limit=12)
        b = pack_opt1(inst, EPS, exact_limit=12)
        assert [bin.placements for bin in a.bins] == [bin.placements for bin in b.bins]


class Reached(Exception):
    """Raised by a stand-in that a test expects no call to reach."""


def _reached(*args, **kwargs):
    raise Reached


def calls_of(monkeypatch, name):
    """A list that gets the arguments of each call of rectbin.opt1's `name`."""
    calls = []
    original = getattr(rectbin.opt1, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rectbin.opt1, name, counted)
    return calls


def refusal_inputs():
    """Seeded generated instances, each also transposed, then the
    const case-3 plants, which need two bins."""
    rng = random.Random(21)
    for _ in range(300):
        spec = GeneratorSpec(rng.randrange(10 ** 6), rng.randint(4, 11), rng.randint(1, 3),
                             rng.choice(["guillotine", "shrink"]))
        inst, _ = gen_instance(spec)
        yield inst
        yield transpose_instance(inst)
    for seed in range(60):
        inst, _ = plant_const_case3(seed)
        yield inst
        yield transpose_instance(inst)


# pack_auto's packing of plant_const_case3(206380), the const2 case-3 layout
CASE3_206380 = (
    "bins 2\nbin 0\n0 0 0\n1 0 1/2\n2 1/2 0\n3 1/2 1/2\nbin 1\n6 0 0\n5 33/100 0\n"
    "4 33/50 0\n7 99/100 0\n8 119/120 0\n9 149/150 0\n10 199/200 0\n11 299/300 0\n"
    "12 599/600 0\n"
)


class TestRefusedGuesses:
    """pack_small_height refuses a pool too large for its two bins before
    the knapsack, and pack_wide_high a wide stack taller than the bin before
    the subset enumeration; the steps each refusal skips would fail."""

    def test_small_height_refuses_only_what_its_steps_would_refuse(self, monkeypatch):
        # with the knapsack and the area packer stubbed out, ConditionViolated
        # can only be the refusal; the steps it skips are then run here: the
        # knapsack must hit its size limit, or bin 2's area condition above
        # its floor must fail
        monkeypatch.setattr(rectbin.opt1, "max_area_pack", _reached)
        monkeypatch.setattr(rectbin.opt1, "steinberg_pack", _reached)
        previous = signal.signal(signal.SIGALRM, _reached)
        checked = 0
        try:
            for inst in refusal_inputs():
                delta = find_feasible_delta(inst.grid, EPS)
                if delta is None:
                    continue
                try:
                    pack_small_height(inst, delta, EPS)
                    continue
                except ConditionViolated:
                    pass
                except (Reached, GuessFailed):
                    continue
                width_cutoff = 1 - delta
                height_cutoff = 1 - delta_threshold(delta, EPS)
                tall = [it for it in inst.items if it.height > height_cutoff]
                pool = [it for it in inst.items if it.height <= height_cutoff]
                region_w = 1 - total_width(tall)
                picked = set()
                if region_w > 0:
                    signal.setitimer(signal.ITIMER_REAL, 0.1)
                    try:
                        picked = set(max_area_pack(pool, region_w, 1, EPS).layout.item_ids())
                    except InstanceTooLarge:
                        checked += 1
                        continue
                    except Reached:
                        continue  # a knapsack too slow to check here
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                leftover = [it for it in pool if it.id not in picked]
                floor = [it for it in leftover if it.width > width_cutoff]
                rest = [it for it in leftover if it.width <= width_cutoff]
                assert not steinberg_condition(rest, 1, 1 - total_height(floor))
                checked += 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert checked >= 50

    def test_small_height_refuses_before_the_knapsack(self, monkeypatch):
        # two_bin pool entry 71, whose knapsack alone runs past 20 s
        monkeypatch.setattr(rectbin.opt1, "max_area_pack", _reached)
        inst, _ = gen_instance(GeneratorSpec(727396, 11, 2, "shrink"))
        with pytest.raises(ConditionViolated):
            pack_small_height(inst, find_feasible_delta(inst.grid, EPS), EPS)

    def test_wide_high_refuses_a_tall_stack_unvalidated(self, monkeypatch):
        validated = calls_of(monkeypatch, "validate_bin")
        wide = [Item(i, Fraction(3, 5), Fraction(3, 10)) for i in range(4)]  # 6/5 tall
        high = [Item(10 + j, Fraction(1, 20), Fraction(3, 5)) for j in range(8)]
        with pytest.raises(GuessFailed):
            pack_wide_high(wide, high, EPS, Grid.of(wide + high))
        assert validated == []
        # the size limit is still reported first
        high = [Item(10 + j, Fraction(1, 20), Fraction(3, 5)) for j in range(17)]
        with pytest.raises(InstanceTooLarge):
            pack_wide_high(wide, high, EPS, Grid.of(wide + high))

    def test_no_layout_is_validated_beside_a_stack_taller_than_the_bin(self, monkeypatch):
        # OPT >= 3, a wide stack 3 bins tall: each of the 33,538 layouts
        # that pack_wide_high could try beside it fails on the stack
        entered = []
        wide_high = rectbin.opt1.pack_wide_high
        validate = rectbin.opt1.validate_bin
        validated = []

        def tracked_wide_high(*args):
            entered.append(args)
            try:
                return wide_high(*args)
            finally:
                entered.pop()

        def tracked_validate(*args):
            if entered:
                validated.append(args)
            return validate(*args)

        monkeypatch.setattr(rectbin.opt1, "pack_wide_high", tracked_wide_high)
        monkeypatch.setattr(rectbin.opt1, "validate_bin", tracked_validate)
        reached = calls_of(monkeypatch, "pack_large_w")
        inst, _ = gen_instance(GeneratorSpec(0, 40, 4))
        with pytest.raises((GuessFailed, InstanceTooLarge)):
            pack_opt1(inst, EPS)
        assert reached and validated == []

    def test_a_refuted_guess_is_not_reported_as_too_large(self):
        # a two-bin plant whose cutoff guesses the refusal settles before
        # the knapsack, which would raise "13 items exceed the exact limit
        # 10"; pack_opt1 reports a refuted guess, and pack_auto, which
        # catches both, returns the same packing
        inst, _ = plant_const_case3(206380)
        with pytest.raises(GuessFailed):
            pack_opt1(inst, EPS)
        packing, branch, guaranteed = pack_auto(inst, SolveConfig())
        assert (serialize_packing(packing), branch, guaranteed) == (CASE3_206380, "const2", True)
