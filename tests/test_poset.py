"""Poset construction, bounded domains, and the two-reading equivalence."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfblang.errors import InvalidValue
from dfblang.poset import (
    MAX_ELEMENTS,
    CyclicOrder,
    DomainSpec,
    EndoMap,
    FinitePoset,
    PosetFileError,
    UnknownElement,
    dfbf_domain,
    fixed_point_domain,
    load_poset_file,
    make_poset,
    random_endomap,
    random_poset,
    recursive_domain_gfp,
    theorem_check,
    validity_step,
)

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


@pytest.fixture
def chain4():
    poset = make_poset(["a", "b", "c", "d"],
                       [("a", "b"), ("b", "c"), ("c", "d")])
    succ = EndoMap(poset, {"a": "b", "b": "c", "c": "d", "d": "d"})
    return poset, succ


@st.composite
def posets(draw, max_size: int = 6):
    """A random poset built from index-increasing covers, so always acyclic."""
    n = draw(st.integers(1, max_size))
    elements = tuple(f"n{i}" for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs),
                           unique=True)) if pairs else []
    covers = [(elements[i], elements[j]) for i, j in chosen]
    return make_poset(elements, covers)


@st.composite
def posets_with_maps(draw, max_size: int = 6):
    poset = draw(posets(max_size))
    mapping = {x: draw(st.sampled_from(poset.elements)) for x in poset.elements}
    return poset, EndoMap(poset, mapping)


def _assert_poset_axioms(poset: FinitePoset) -> None:
    for x in poset.elements:
        assert poset.leq(x, x), f"reflexivity fails at {x}"
    for x, y in itertools.product(poset.elements, repeat=2):
        if poset.leq(x, y) and poset.leq(y, x):
            assert x == y, f"antisymmetry fails on {x}, {y}"
    for x, y, z in itertools.product(poset.elements, repeat=3):
        if poset.leq(x, y) and poset.leq(y, z):
            assert poset.leq(x, z), f"transitivity fails on {x}, {y}, {z}"


def reference_up_sets(elements, covers) -> dict[str, frozenset[str]]:
    """Up-sets by set-based graph search, with a recursive cycle check.

    Raises what make_poset raises, in the same order: duplicate labels,
    the carrier cap, unknown cover labels in cover order, then the first
    cycle a depth-first search meets in declaration and cover order.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise InvalidValue("duplicate element labels")
    if len(elements) > MAX_ELEMENTS:
        raise InvalidValue(
            f"carrier too large: {len(elements)} elements, cap is {MAX_ELEMENTS}")
    succ: dict[str, list[str]] = {x: [] for x in elements}
    for a, b in covers:
        for end in (a, b):
            if end not in succ:
                raise UnknownElement(end)
        succ[a].append(b)

    finished: set[str] = set()

    def visit(x: str, path: list[str]) -> None:
        path.append(x)
        for y in succ[x]:
            if y in path:
                raise CyclicOrder(tuple(path[path.index(y):]))
            if y not in finished:
                visit(y, path)
        path.pop()
        finished.add(x)

    for x in elements:
        if x not in finished:
            visit(x, [])

    up = {}
    for x in elements:
        seen, stack = {x}, [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        up[x] = frozenset(seen)
    return up


@st.composite
def cover_inputs(draw):
    """Carriers of 0-7 or 62-66 labels, sometimes with a repeated label,
    and covers in any direction, sometimes over an undeclared label."""
    n = draw(st.one_of(st.integers(0, 7), st.integers(62, 66)))
    elements = [f"e{i}" for i in range(n)]
    if elements and draw(st.integers(0, 9)) == 0:
        elements.insert(draw(st.integers(0, n)), draw(st.sampled_from(elements)))
    labels = elements + draw(st.sampled_from([[], [], [], ["zz"]]))
    if not labels:
        return elements, []
    label = st.sampled_from(labels)
    return elements, draw(st.lists(st.tuples(label, label), max_size=3 * n + 2))


class TestMakePoset:
    def test_covers_close_transitively(self, chain4):
        poset, _ = chain4
        assert poset.leq("a", "d")
        assert not poset.leq("d", "a")

    def test_axioms_on_a_diamond(self):
        poset = make_poset(["bot", "l", "r", "top"],
                           [("bot", "l"), ("bot", "r"),
                            ("l", "top"), ("r", "top")])
        _assert_poset_axioms(poset)
        assert not poset.leq("l", "r")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            make_poset(["a", "a"], [])

    def test_carrier_cap(self):
        labels = [f"x{i}" for i in range(65)]
        with pytest.raises(ValueError):
            make_poset(labels, [])
        assert make_poset(labels[:64], []).size == 64

    def test_unknown_cover_endpoint(self):
        with pytest.raises(UnknownElement):
            make_poset(["a"], [("a", "b")])

    def test_cycle_reported_with_path(self):
        with pytest.raises(CyclicOrder) as exc:
            make_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert set(exc.value.cycle) == {"a", "b", "c"}

    def test_unknown_element_in_queries(self, chain4):
        poset, _ = chain4
        with pytest.raises(UnknownElement):
            poset.leq("a", "zz")

    @PROPERTY_SETTINGS
    @given(posets())
    def test_axioms_always_hold(self, poset):
        _assert_poset_axioms(poset)

    def test_first_cycle_in_declaration_order_is_reported(self):
        covers = [("a", "b"), ("a", "c"), ("b", "d"), ("d", "b"),
                  ("c", "e"), ("e", "c")]
        with pytest.raises(CyclicOrder) as exc:
            make_poset(["a", "b", "c", "d", "e"], covers)
        assert exc.value.cycle == ("b", "d")

    def test_self_cover_is_a_cycle(self):
        with pytest.raises(CyclicOrder, match=r"cycle: a <= a$"):
            make_poset(["a"], [("a", "a")])

    def test_unknown_source_reported_before_unknown_target(self, chain4):
        poset, _ = chain4
        with pytest.raises(UnknownElement, match="'x'"):
            poset.leq("x", "y")
        with pytest.raises(UnknownElement, match="'x'"):
            make_poset(["a"], [("a", "a"), ("x", "y")])

    def test_equality_compares_carrier_and_order(self):
        abc, covers = ["a", "b", "c"], [("a", "b"), ("b", "c")]
        assert make_poset(abc, covers) == make_poset(abc, covers + [("a", "c")])
        assert make_poset(abc, covers) != make_poset(abc, covers[:1])
        assert make_poset(abc, []) != make_poset(["a", "c", "b"], [])
        assert repr(make_poset(abc, covers)) == "FinitePoset(3 elements)"

    @settings(max_examples=300, deadline=None)
    @given(cover_inputs())
    def test_agrees_with_the_reference_closure(self, drawn):
        elements, covers = drawn
        try:
            expected = reference_up_sets(elements, covers)
        except (InvalidValue, UnknownElement, CyclicOrder) as exc:
            with pytest.raises(type(exc)) as got:
                make_poset(elements, covers)
            assert str(got.value) == str(exc)
            return
        poset = make_poset(elements, covers)
        assert poset.elements == tuple(elements)
        for x in elements:
            assert poset.up_set(x) == expected[x]
            for y in elements:
                assert poset.leq(x, y) == (y in expected[x])


class TestEndoMap:
    def test_must_be_total(self, chain4):
        poset, _ = chain4
        with pytest.raises(ValueError):
            EndoMap(poset, {"a": "a"})

    def test_values_must_be_elements(self, chain4):
        poset, _ = chain4
        with pytest.raises(UnknownElement):
            EndoMap(poset, {"a": "zz", "b": "b", "c": "c", "d": "d"})


class TestDomainSpec:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError):
            DomainSpec()


class TestDfbfDomain:
    def test_upper_strict_on_the_chain(self, chain4):
        poset, succ = chain4
        result = dfbf_domain(poset, DomainSpec(upper=succ, strict=True))
        assert result.members == {"a", "b", "c"}

    def test_upper_nonstrict_keeps_the_fixed_point(self, chain4):
        poset, succ = chain4
        result = dfbf_domain(poset, DomainSpec(upper=succ))
        assert result.members == {"a", "b", "c", "d"}

    def test_lower_duals(self, chain4):
        poset, succ = chain4
        assert dfbf_domain(poset, DomainSpec(lower=succ)).members == {"d"}
        assert dfbf_domain(
            poset, DomainSpec(lower=succ, strict=True)).members == set()

    def test_oracle_agreement_on_the_chain(self, chain4):
        # Independent reading: enumerate each element against the raw
        # predicate, nothing shared with the implementation.
        poset, succ = chain4
        expected = {x for x in poset.elements
                    if poset.leq(x, succ(x)) and succ(x) != x}
        got = dfbf_domain(poset, DomainSpec(upper=succ, strict=True))
        assert got.members == expected

    def test_equal_bounds_nonstrict_are_the_fixed_points(self, chain4):
        poset, succ = chain4
        spec = DomainSpec(lower=succ, upper=succ)
        assert dfbf_domain(poset, spec).members == \
            fixed_point_domain(poset, succ).members == {"d"}

    def test_equal_bounds_strict_both_sides_empty(self, chain4):
        poset, succ = chain4
        spec = DomainSpec(lower=succ, upper=succ, strict=True)
        assert dfbf_domain(poset, spec).members == frozenset()

    @PROPERTY_SETTINGS
    @given(posets_with_maps())
    def test_fixed_point_lemma(self, poset_and_map):
        poset, f = poset_and_map
        spec = DomainSpec(lower=f, upper=f)
        assert dfbf_domain(poset, spec).members == \
            fixed_point_domain(poset, f).members

    @PROPERTY_SETTINGS
    @given(posets_with_maps())
    def test_strict_sandwich_is_always_empty(self, poset_and_map):
        # x < f(x) and f(x) < x together contradict antisymmetry.
        poset, f = poset_and_map
        spec = DomainSpec(lower=f, upper=f, strict=True)
        assert dfbf_domain(poset, spec).members == frozenset()

    @PROPERTY_SETTINGS
    @given(posets_with_maps(), st.randoms(use_true_random=False))
    def test_raising_the_upper_bound_never_shrinks(self, poset_and_map, rng):
        poset, u = poset_and_map
        raised = EndoMap(poset, {
            x: rng.choice(sorted(poset.up_set(u(x)))) for x in poset.elements
        })
        small = dfbf_domain(poset, DomainSpec(upper=u)).members
        large = dfbf_domain(poset, DomainSpec(upper=raised)).members
        assert small <= large

    @PROPERTY_SETTINGS
    @given(posets_with_maps(), st.randoms(use_true_random=False))
    def test_lowering_the_lower_bound_never_shrinks(self, poset_and_map, rng):
        poset, l = poset_and_map
        down_sets = {
            y: [x for x in poset.elements if poset.leq(x, y)]
            for y in poset.elements
        }
        lowered = EndoMap(poset, {
            x: rng.choice(down_sets[l(x)]) for x in poset.elements
        })
        small = dfbf_domain(poset, DomainSpec(lower=l)).members
        large = dfbf_domain(poset, DomainSpec(lower=lowered)).members
        assert small <= large


class TestRecursiveDomain:
    def test_gfp_equals_one_shot_on_the_chain(self, chain4):
        poset, succ = chain4
        gfp = recursive_domain_gfp(poset, succ, strict=True)
        assert gfp.members == {"a", "b", "c"}

    def test_one_step_stabilization(self, chain4):
        poset, succ = chain4
        everything = frozenset(poset.elements)
        once = validity_step(poset, everything, succ)
        assert validity_step(poset, once, succ) == once

    def test_bad_side_rejected(self, chain4):
        poset, succ = chain4
        with pytest.raises(ValueError):
            validity_step(poset, frozenset(), succ, side="sideways")

    @PROPERTY_SETTINGS
    @given(posets_with_maps(), st.booleans(),
           st.sampled_from(["upper", "lower"]))
    def test_step_is_deflationary_and_idempotent(self, poset_and_map,
                                                 strict, side):
        poset, g = poset_and_map
        s0 = frozenset(poset.elements)
        s1 = validity_step(poset, s0, g, strict, side)
        assert s1 <= s0
        assert validity_step(poset, s1, g, strict, side) == s1

    @PROPERTY_SETTINGS
    @given(posets_with_maps())
    def test_step_is_monotone(self, poset_and_map):
        poset, g = poset_and_map
        s0 = frozenset(poset.elements)
        smaller = frozenset(x for i, x in enumerate(poset.elements) if i % 2)
        assert validity_step(poset, smaller, g) <= validity_step(poset, s0, g)

    @PROPERTY_SETTINGS
    @given(posets_with_maps(), st.booleans())
    def test_two_readings_agree(self, poset_and_map, strict):
        poset, g = poset_and_map
        assert theorem_check(poset, g, strict)


class TestRandomGeneration:
    def test_same_seed_same_poset(self):
        assert random_poset(42) == random_poset(42)
        p = random_poset(42)
        assert random_endomap(7, p) == random_endomap(7, p)

    def test_different_seeds_vary(self):
        drawn = {random_poset(i).size for i in range(50)}
        assert len(drawn) > 1

    def test_sizes_cover_the_whole_range(self):
        sizes = {random_poset(i, 8).size for i in range(1000)}
        assert sizes == set(range(1, 9))

    def test_empty_size_range_is_an_input_error(self):
        with pytest.raises(InvalidValue):
            random_poset(0, 0)

    def test_an_oversized_draw_is_refused_before_its_covers(self):
        # Drawing the covers of a million elements would take hours; a
        # size past the cap is refused whatever the seed would draw.
        for seed in range(8):
            for max_size in (MAX_ELEMENTS + 1, 100, 10 ** 6):
                with pytest.raises(InvalidValue, match=(
                        f"^the maximum size must be 1 to {MAX_ELEMENTS}, "
                        f"got {max_size}$")):
                    random_poset(seed, max_size)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_posets_satisfy_the_axioms(self, seed):
        _assert_poset_axioms(random_poset(seed, 8))

    def test_random_posets_close_their_draws_in_index_order(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 64)
            density = rng.uniform(0.1, 0.6)
            succ = [[j for j in range(i + 1, n) if rng.random() < density]
                    for i in range(n)]
            up = [0] * n
            for i in reversed(range(n)):
                up[i] = 1 << i
                for j in succ[i]:
                    up[i] |= up[j]
            poset = random_poset(seed, 64)
            assert poset.elements == tuple(f"p{i}" for i in range(n))
            for i, x in enumerate(poset.elements):
                assert poset.up_set(x) == {
                    y for j, y in enumerate(poset.elements) if up[i] >> j & 1}

    @pytest.mark.parametrize("seed", range(10))
    def test_endomaps_are_total(self, seed):
        poset = random_poset(seed, 8)
        g = random_endomap(seed * 31, poset)
        for x in poset.elements:
            poset.check_element(g(x))


def all_posets(n: int) -> list[FinitePoset]:
    """Every partial order on n labelled elements, once each.

    Each order is the closure of some acyclic set of cover pairs, so
    closing every subset of the n(n-1) ordered pairs and keeping one
    poset per distinct order finds them all.
    """
    elements = tuple("abcd"[:n])
    pairs = list(itertools.permutations(elements, 2))
    orders = {}
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        covers = list(itertools.compress(pairs, chosen))
        try:
            poset = make_poset(elements, covers)
        except CyclicOrder:
            continue
        orders.setdefault(tuple(poset.up_set(x) for x in elements), poset)
    return list(orders.values())


class TestExhaustive:
    """The two readings agree on every poset of at most four elements
    and every self-map of it, strict and not."""

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 19), (4, 219)])
    def test_every_small_poset_and_endomap(self, n, count):
        posets = all_posets(n)
        assert len(posets) == count
        for poset in posets:
            elements = poset.elements
            for image in itertools.product(elements, repeat=n):
                g = EndoMap(poset, dict(zip(elements, image)))
                assert theorem_check(poset, g, strict=True), (poset, g)
                assert theorem_check(poset, g, strict=False), (poset, g)
                assert dfbf_domain(poset, DomainSpec(lower=g, upper=g)) == \
                    fixed_point_domain(poset, g), (poset, g)


class TestPosetFile:
    def test_round_trip(self, chain4_file):
        poset, maps = load_poset_file(chain4_file)
        assert poset.elements == ("a", "b", "c", "d")
        assert set(maps) == {"succ", "ident"}
        assert maps["succ"]("a") == "b"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"elements": ["a"], "covers": [], "map": {}}')
        with pytest.raises(PosetFileError) as exc:
            load_poset_file(str(path))
        assert "map" in str(exc.value)

    def test_partial_map_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"elements": ["a", "b"], "covers": [], "maps": {"g": {"a": "a"}}}')
        with pytest.raises(PosetFileError):
            load_poset_file(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PosetFileError):
            load_poset_file(str(path))

    @pytest.mark.parametrize("elements, covers, message", [
        ('["a", "b", "a"]', "[]", "duplicate element labels"),
        ('["a"]', '[["a", "z"]]', "unknown element 'z'"),
        ('["a", "b"]', '[["a", "b"], ["b", "a"]]',
         "cover relation has a cycle: a <= b <= a"),
    ], ids=["duplicate", "unknown", "cycle"])
    def test_carrier_errors_name_the_file(self, tmp_path, elements, covers,
                                          message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"elements": {elements}, "covers": {covers}}}')
        with pytest.raises(PosetFileError) as exc:
            load_poset_file(str(path))
        assert str(exc.value) == f"{path}: {message}"

    def test_bad_cover_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"elements": ["a"], "covers": [["a"]]}')
        with pytest.raises(PosetFileError):
            load_poset_file(str(path))
