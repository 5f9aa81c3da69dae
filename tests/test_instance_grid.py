"""The instance's lattice: Instance.grid, the Grid of the item sides and
1/2, is computed once and read by every layer.  Grid.holding widens a
grid only when it must, the transposed instance inherits the transposed
grid, and the delta search, the unit-bin memo and the oracle give the
same answers on the instance's grid as on the items' own, odd, lattice."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import rectbin.oracle
from rectbin.classify import find_feasible_delta
from rectbin.fileio import serialize_packing
from rectbin.geometry import HALF, Grid, Instance, Item, Packing, transpose_instance
from rectbin.knapsack import UnitBinMemo, unit_bin_layout
from rectbin.optconst import pack_opt_const
from rectbin.oracle import exact_min_bins, plant_const_case1
from support import oracle_pool_sample

F = Fraction
EPS = F(1, 256)


def odd_draw(rng, den):
    """2 to 7 items with sides k/den, den odd, so that the items' own
    lattice is odd and the instance's has twice its spacing count."""
    return Instance([Item(i, F(rng.randint(1, den), den), F(rng.randint(1, den), den))
                     for i in range(rng.randint(2, 7))])


def odd_draws(count):
    rng = random.Random(2103)
    return [odd_draw(rng, den) for _ in range(count) for den in (3, 7, 21)]


def test_holding_returns_the_grid_itself_when_it_holds_the_values():
    grid = Grid.of([Item(0, F(1, 4), F(3, 8))])
    assert grid.holding() is grid
    assert grid.holding(HALF, F(5, 8), 1) is grid


def test_a_widened_grid_keeps_every_side():
    items = [Item(0, F(1, 3), F(2, 7)), Item(1, F(1), F(6, 7))]
    grid = Grid.of(items)
    wide = grid.holding(F(1, 5), HALF)
    assert (grid.d, wide.d) == (21, 210)
    assert wide == Grid.of(items, F(1, 5), HALF)
    for i, (w, h) in grid.sides.items():
        assert (F(w, grid.d), F(h, grid.d)) == tuple(F(s, wide.d) for s in wide.sides[i])


def test_the_instance_grid_holds_one_half_and_is_computed_once():
    for instance in odd_draws(5):
        grid = instance.grid
        assert grid.d % 2 == 0 and grid == Grid.of(instance.items, HALF)
        assert grid.d == 2 * Grid.of(instance.items).d
        assert instance.grid is grid
    assert "grid" not in vars(Instance([]))  # computed on the first read only
    assert Instance([]) == Instance([])  # and not a field


@pytest.mark.parametrize("read_first", [True, False])
def test_the_transposed_instance_has_the_transposed_grid(read_first):
    for instance in odd_draws(5):
        if read_first:
            instance.grid
        flipped = transpose_instance(instance)
        assert ("grid" in vars(flipped)) == read_first
        assert flipped.grid == instance.grid.transposed()


def test_the_delta_search_widens_an_odd_lattice():
    found = 0
    for instance in odd_draws(40):
        for searched in (instance, transpose_instance(instance)):
            delta = find_feasible_delta(searched.grid, EPS)
            assert find_feasible_delta(Grid.of(searched.items), EPS) == delta
            found += delta is not None and delta != HALF
    assert found > 10  # a cutoff below 1/2 is found, not just the fallback


def layouts_agree(instance, limit=8):
    """unit_bin_layout gives the same bytes on the memo of the instance's
    grid as on the memo of the items' own lattice, for every subset."""
    on_grid = UnitBinMemo(instance.grid)
    on_items = UnitBinMemo(Grid.of(instance.items))
    fits = 0
    for size in range(1, len(instance.items) + 1):
        for subset in itertools.combinations(instance.items, size):
            a = unit_bin_layout(subset, on_grid, limit)
            b = unit_bin_layout(subset, on_items, limit)
            assert (a is None) == (b is None), subset
            if a is not None:
                fits += 1
                assert serialize_packing(Packing([a])) == serialize_packing(Packing([b]))
    return fits


def oracle_answer(instance):
    result = exact_min_bins(instance, max_bins=4)
    return result and (result[0], serialize_packing(result[1]))


def test_the_memo_and_the_oracle_agree_on_both_lattices(monkeypatch):
    instances = odd_draws(6) + oracle_pool_sample(step=85)
    assert sum(layouts_agree(instance) for instance in instances) > 100
    on_grid = [oracle_answer(instance) for instance in instances]

    def own(grid):
        # the lattice of the sides that grid holds, which is odd for odd_draws
        return Grid.of([Item(i, F(w, grid.d), F(h, grid.d)) for i, (w, h) in grid.sides.items()])

    # the oracle once more, with its memo on the items' own lattice
    monkeypatch.setattr(rectbin.oracle, "UnitBinMemo", lambda grid: UnitBinMemo(own(grid)))
    assert [oracle_answer(instance) for instance in instances] == on_grid
    assert {answer[0] for answer in on_grid if answer} >= {1, 2, 3}


def test_a_two_bin_solve_builds_no_lattice_for_its_memo(monkeypatch):
    # geometry.lattice, counted in every module that binds it; Grid.of
    # calls geometry's own
    import rectbin.geometry as geometry

    counts = Counter()
    lattice = geometry.lattice

    def counted(module):
        def call(*args):
            counts[module] += 1
            return lattice(*args)
        return call

    for name in ("geometry", "classify", "knapsack", "steinberg", "opt1", "optconst",
                 "oracle", "cli"):
        module = __import__(f"rectbin.{name}", fromlist=[name])
        if getattr(module, "lattice", None) is lattice:
            monkeypatch.setattr(module, "lattice", counted(name))
    memo_builds = []  # the lattices built inside each UnitBinMemo(...)
    init = UnitBinMemo.__init__

    def counted_init(memo, *args):
        before = counts.total()
        init(memo, *args)
        memo_builds.append(counts.total() - before)

    monkeypatch.setattr(UnitBinMemo, "__init__", counted_init)
    instance, _ = plant_const_case1(0)
    instance.grid
    counts.clear()
    packing = pack_opt_const(instance, 2, 3)
    assert len(packing.bins) <= 4
    assert memo_builds and not any(memo_builds)
    # only Steinberg's packer and the knapsack's regions build a lattice
    assert set(counts) <= {"steinberg", "knapsack"}, counts
