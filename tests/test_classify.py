import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbin.classify import (
    XI,
    classify,
    delta_threshold,
    find_feasible_delta,
    h_max,
    lower_bound,
    total_height,
    total_width,
    vol,
    w_max,
)
from rectbin.errors import PreconditionViolated
from rectbin.geometry import Instance, exact_sum, transpose_instance
from rectbin.oracle import GeneratorSpec, gen_instance
from support import (
    area_guarantee_check,
    brute_min_bins,
    delta_sets,
    dims_strategy,
    make_instance,
    oracle_pool_sample,
    reference_feasible_delta,
    reference_lower_bound,
    reference_total_height,
    reference_total_width,
    reference_vol,
    wide_only,
)

EPS = Fraction(1, 256)


def test_classify_wide_only():
    classes = classify(make_instance([(Fraction(6, 10), Fraction(3, 10))]))
    assert len(classes.wide) == 1
    assert classes.high == [] and classes.small == [] and classes.big == []
    assert len(wide_only(classes)) == 1


def test_classify_big():
    classes = classify(make_instance([(Fraction(6, 10), Fraction(6, 10))]))
    assert len(classes.wide) == 1 and len(classes.high) == 1 and len(classes.big) == 1
    assert wide_only(classes) == [] and classes.high_only == []


def test_classify_boundary_small():
    # exactly 1/2 on both sides is small, wide/high need strict excess
    classes = classify(make_instance([(Fraction(1, 2), Fraction(1, 2))]))
    assert len(classes.small) == 1
    assert classes.wide == [] and classes.high == []


@given(st.lists(dims_strategy(), max_size=10))
def test_partition_property(dims):
    classes = classify(make_instance(dims))
    n = len(dims)
    wides = len(classes.wide) - len(classes.big)
    highs = len(classes.high) - len(classes.big)
    assert wides + highs + len(classes.big) + len(classes.small) == n
    assert len(wide_only(classes)) == wides
    assert len(classes.high_only) == highs


def test_aggregates():
    items = make_instance([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 5))]).items
    assert vol(items) == Fraction(1, 6) + Fraction(1, 20)
    assert total_width(items) == Fraction(3, 4)
    assert total_height(items) == Fraction(1, 3) + Fraction(1, 5)
    assert w_max(items) == Fraction(1, 2)
    assert h_max(items) == Fraction(1, 3)
    assert w_max([]) == 0 and h_max([]) == 0


def test_delta_threshold_known_value():
    # gamma at delta = 1/2, eps = 1/256
    assert delta_threshold(Fraction(1, 2), EPS) == Fraction(127, 512)


def test_delta_no_wide_items():
    inst = make_instance([(Fraction(1, 4), Fraction(1, 4))])
    assert find_feasible_delta(inst.grid, EPS) == Fraction(1, 2)


def test_delta_single_wide_item():
    inst = make_instance([(Fraction(9, 10), Fraction(1, 2))])
    assert find_feasible_delta(inst.grid, EPS) == Fraction(1, 10)


def test_delta_smallest_candidate_wins():
    inst = make_instance([(Fraction(95, 100), Fraction(1, 2))])
    assert find_feasible_delta(inst.grid, EPS) == Fraction(1, 20)


def test_delta_not_found():
    # width within eps of 1 removes its own breakpoint from the candidate set,
    # so the item sits in W_delta at every remaining candidate and the
    # height-1/2 stack beats gamma <= 1/4 everywhere
    inst = make_instance([(Fraction(255, 256), Fraction(1, 2))])
    assert find_feasible_delta(inst.grid, EPS) is None
    # same shape short enough to clear the 1/2 threshold stays feasible
    inst2 = make_instance([(Fraction(255, 256), Fraction(1, 5))])
    assert find_feasible_delta(inst2.grid, EPS) == Fraction(1, 2)


def test_delta_eps_range_enforced():
    inst = make_instance([(Fraction(1, 4), Fraction(1, 4))])
    with pytest.raises(ValueError):
        find_feasible_delta(inst.grid, Fraction(1, 200))
    with pytest.raises(ValueError):
        find_feasible_delta(inst.grid, Fraction(0))


def test_delta_sets_membership_strict():
    inst = make_instance([(Fraction(19, 20), Fraction(1, 10)), (Fraction(96, 100), Fraction(1, 10))])
    ds = delta_sets(inst, Fraction(1, 20), EPS)
    # width must exceed 19/20 strictly
    assert [it.id for it in ds.w_delta] == [1]
    assert ds.h_delta == []
    assert ds.gamma == delta_threshold(Fraction(1, 20), EPS)


@settings(max_examples=200)
@given(st.lists(dims_strategy(), min_size=1, max_size=8))
def test_delta_search_agrees_with_step_scan(dims):
    """Independent check: returned delta is feasible and no candidate below it is."""
    inst = make_instance(dims)
    for searched, along, across in (
        (inst, lambda r: r.width, lambda r: r.height),
        (transpose_instance(inst), lambda r: r.height, lambda r: r.width),
    ):
        cands = sorted(
            {Fraction(1, 2)}
            | {
                1 - along(it)
                for it in inst.items
                if along(it) > Fraction(1, 2) and EPS < 1 - along(it) < Fraction(1, 2)
            }
        )
        feasible = [
            d
            for d in cands
            if sum((across(it) for it in inst.items if along(it) > 1 - d), Fraction(0))
            <= (d - EPS) / (1 + 2 * d)
        ]
        expected = feasible[0] if feasible else None
        assert find_feasible_delta(searched.grid, EPS) == expected


DENOMINATORS = (2, 3, 5, 7, 64, 1000, 8000, 65536, 999983)


def _boundary_instance(rng, eps):
    """Up to 12 items whose sides are drawn half from the delta search's
    boundaries (1/2, 1 - eps, just below 1 - eps, 1, 1/2 + 1/d) and half
    from random p/q over DENOMINATORS."""
    def side():
        if rng.random() < 0.5:
            d = rng.choice(DENOMINATORS)
            return rng.choice([Fraction(1, 2), 1 - eps, 1 - eps - Fraction(1, d * d),
                               Fraction(1), Fraction(1, 2) + Fraction(1, d)])
        q = rng.choice(DENOMINATORS)
        return Fraction(rng.randint(1, q), q)

    return make_instance([(side(), side()) for _ in range(rng.randint(0, 12))])


def test_delta_search_matches_the_fraction_reference():
    rng = random.Random(90210)
    found = 0
    for _ in range(3000):
        m = rng.choice(DENOMINATORS[1:])
        eps = Fraction(rng.randint(1, m - 1), 200 * m)  # in (0, 1/200)
        inst = _boundary_instance(rng, eps)
        for axis, searched in (("width", inst), ("height", transpose_instance(inst))):
            delta = find_feasible_delta(searched.grid, eps)
            assert delta == reference_feasible_delta(inst.items, eps, axis)
            found += delta is not None and delta != Fraction(1, 2)
    assert found > 500  # a cutoff below 1/2, not just the fallback, is found often


def test_delta_search_accepts_a_stack_exactly_at_gamma():
    # the full-width item alone is above the cutoff 1 - delta, and its
    # height is gamma(delta) to the last digit
    for eps in (Fraction(1, 256), Fraction(3, 1000), Fraction(1, 200 * 999983)):
        for w in (Fraction(3, 4), Fraction(5, 7), Fraction(65535, 65536) - eps):
            delta = 1 - w
            if not eps < delta < Fraction(1, 2):
                continue
            dims = [(w, Fraction(1, 2)), (Fraction(1), delta_threshold(delta, eps))]
            inst = make_instance(dims)
            assert find_feasible_delta(inst.grid, eps) == delta
            flipped = make_instance([(h, w_) for w_, h in dims])
            assert find_feasible_delta(transpose_instance(flipped).grid, eps) == delta
            assert reference_feasible_delta(inst.items, eps) == delta


def test_sums_match_the_fraction_reference():
    rng = random.Random(4711)
    for _ in range(1000):
        eps = Fraction(1, 256)
        items = _boundary_instance(rng, eps).items
        for ours, ref in ((vol, reference_vol), (total_width, reference_total_width),
                          (total_height, reference_total_height)):
            got, want = ours(items), ref(items)
            assert type(got) is Fraction and got == want and str(got) == str(want)
        assert lower_bound(Instance(items)) == reference_lower_bound(items)
    for ours in (vol, total_width, total_height):
        assert ours([]) == 0 and str(ours([])) == "0"


@given(st.integers(1, 400).map(lambda k: Fraction(k, 800)))
def test_gamma_at_most_quarter(delta):
    assert delta_threshold(delta, EPS) <= Fraction(1, 4)


def test_area_guarantee_requires_failed_search():
    inst = make_instance([(Fraction(1, 4), Fraction(1, 4))])
    with pytest.raises(PreconditionViolated):
        area_guarantee_check(inst, EPS)


def test_area_guarantee_on_tall_wide_stacks():
    # two items per axis, each stack far over every threshold
    dims = [
        (Fraction(255, 256), Fraction(1, 2)),
        (Fraction(127, 128), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(255, 256)),
        (Fraction(1, 2), Fraction(127, 128)),
    ]
    inst = make_instance(dims)
    assert find_feasible_delta(inst.grid, EPS) is None
    assert find_feasible_delta(transpose_instance(inst).grid, EPS) is None
    classes = classify(inst)
    assert area_guarantee_check(inst, EPS)
    lhs = vol(classes.wide + [it for it in classes.high if it not in classes.wide])
    assert lhs >= 2 * XI + (total_width(classes.high) + total_height(classes.wide)) / 2


@pytest.mark.parametrize("dims,bound", [
    ([], 0),
    ([(Fraction(1, 4), Fraction(1, 4))], 1),
    ([(Fraction(1, 2), Fraction(1, 2))] * 9, 3),  # area 9/4
    ([(Fraction(3, 5), Fraction(2, 5))] * 3, 2),  # h(W) = 6/5
    ([(Fraction(2, 5), Fraction(3, 5))] * 5, 2),  # w(H) = 2
    ([(Fraction(51, 100), Fraction(51, 100))] * 4, 4),  # four big items
])
def test_lower_bound_known_values(dims, bound):
    assert lower_bound(make_instance(dims)) == bound


def test_lower_bound_never_exceeds_optimum():
    # both upper bounds are independent of lower_bound: the generator's
    # witness packing, and a brute force over every assignment
    for mode in ("guillotine", "shrink"):
        for seed in range(12):
            inst, witness = gen_instance(GeneratorSpec(seed=seed, n=6, ell=1 + seed % 3, mode=mode))
            assert lower_bound(inst) <= len(witness.bins), (mode, seed)
    rng = random.Random(3)
    for trial in range(40):
        dims = [(Fraction(rng.randint(2, 9), 10), Fraction(rng.randint(2, 9), 10))
                for _ in range(4)]
        inst = make_instance(dims)
        assert lower_bound(inst) <= brute_min_bins(inst.items), (trial, dims)


F = Fraction
# class boundaries: a side of exactly 1/2 (neither wide nor high), an odd
# lattice (d = 7, where 2w > d splits 4/7 from 3/7), sides of 1, and
# identical items, whose sums land on a whole bin count
BOUND_BOUNDARIES = [
    [(F(1, 2), F(1))] * 3,
    [(F(1, 2), F(1, 2))] * 5,
    [(F(1), F(1, 2))] * 2 + [(F(1, 2), F(1, 2))],
    [(F(4, 7), F(3, 7))] * 5 + [(F(3, 7), F(4, 7))] * 3,
    [(F(4, 7), F(4, 7))] * 2 + [(F(3, 7), F(1, 7))],
    [(F(1), F(1))] * 3,
    [(F(1), F(1, 7))] * 7,
    [(F(1), F(1, 7))] * 8,
    [(F(2, 3), F(1, 3))] * 6,
    [(F(1, 3), F(2, 3)), (F(1, 2) + F(1, 1000), F(1, 5))],
]


@pytest.mark.parametrize("dims", BOUND_BOUNDARIES)
def test_lattice_bound_matches_the_fraction_formula_at_class_boundaries(dims):
    items = make_instance(dims).items
    assert lower_bound(Instance(items)) == reference_lower_bound(items)


@pytest.mark.parametrize("dims", BOUND_BOUNDARIES + [[], [(F(999, 1000), F(1, 1000))]])
def test_vol_equals_the_sum_of_the_area_products_at_class_boundaries(dims):
    items = make_instance(dims).items
    assert vol(items) == exact_sum([it.width * it.height for it in items])
    assert not any("volume" in vars(it) for it in items)  # vol reads no Item.volume


def test_vol_equals_the_sum_of_the_area_products_on_the_oracle_pool():
    for instance in oracle_pool_sample(step=5):
        items = instance.items
        want = exact_sum([it.width * it.height for it in items])
        assert vol(items) == want and vol(items[::2]) == exact_sum([it.volume for it in items[::2]])


def test_lattice_bound_matches_the_fraction_formula_on_the_oracle_pool():
    # the oracle's start bin count, lower_bound on the instance's lattice,
    # against the Fraction sums
    starts = set()
    for instance in oracle_pool_sample(step=5):
        want = reference_lower_bound(instance.items)
        assert lower_bound(instance) == want
        starts.add(want)
    assert starts == {1, 2, 3}
