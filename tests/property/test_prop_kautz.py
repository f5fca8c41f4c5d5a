"""Property-based tests for the Kautz string substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kautz import strings as ks
from repro.kautz.region import KautzRegion


def kautz_strings(min_length=1, max_length=10, base=2):
    """Strategy producing valid Kautz strings via their rank."""

    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=min_length, max_value=max_length))
        index = draw(st.integers(min_value=0, max_value=ks.space_size(base, length) - 1))
        return ks.unrank(index, length, base=base)

    return build()


def kautz_prefixes(max_length=8, base=2):
    """Strategy producing valid Kautz prefixes (possibly empty)."""

    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=0, max_value=max_length))
        if length == 0:
            return ""
        index = draw(st.integers(min_value=0, max_value=ks.space_size(base, length) - 1))
        return ks.unrank(index, length, base=base)

    return build()


def reference_rank(value, base=2):
    """Positional rank: symbol index times the block size of its position."""
    index = 0
    previous = None
    for position, char in enumerate(value):
        choices = ks.allowed_symbols(previous, base=base)
        index += choices.index(char) * base ** (len(value) - position - 1)
        previous = char
    return index


def reference_unrank(index, length, base=2):
    """Positional unrank: divide by the block size of each position in turn."""
    result = []
    previous = None
    for position in range(length):
        choices = ks.allowed_symbols(previous, base=base)
        block = base ** (length - position - 1)
        choice_index = index // block
        index -= choice_index * block
        previous = choices[choice_index]
        result.append(previous)
    return "".join(result)


@st.composite
def ranked_strings(draw, max_length=100):
    """``(base, length, index)`` spanning bases 2-4 and long ObjectIDs."""
    base = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=max_length))
    index = draw(st.integers(min_value=0, max_value=ks.space_size(base, length) - 1))
    return base, length, index


def extension_contains_prefix(region, prefix):
    """Reference for :meth:`KautzRegion.contains_prefix` from the extensions.

    The region's strings extending ``prefix`` run from its minimal to its
    maximal extension; a prefix longer than the region asks whether its
    head is a member.
    """
    if len(prefix) > region.length:
        return region.low <= prefix[: region.length] <= region.high
    lowest = ks.min_extension(prefix, region.length, base=region.base)
    highest = ks.max_extension(prefix, region.length, base=region.base)
    return lowest <= region.high and highest >= region.low


@st.composite
def regions_and_prefixes(draw):
    """A region of length up to 32 and a prefix to test on it.

    Besides random prefixes (up to 8 symbols longer than the region) and
    the empty prefix, the prefix can branch off one of the endpoints: a
    head of the endpoint, continued by random symbols, so the boundary
    cases ``prefix == low[:m]`` and ``prefix == high[:m]`` come up often.
    """
    base = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.integers(min_value=1, max_value=32))
    first = draw(kautz_strings(min_length=length, max_length=length, base=base))
    second = draw(kautz_strings(min_length=length, max_length=length, base=base))
    region = KautzRegion(min(first, second), max(first, second), base=base)
    source = draw(st.sampled_from(("empty", "random", "low", "high")))
    if source == "empty":
        return region, ""
    if source == "random":
        return region, draw(kautz_prefixes(max_length=length + 8, base=base))
    endpoint = region.low if source == "low" else region.high
    prefix = endpoint[: draw(st.integers(min_value=0, max_value=length))]
    for _ in range(draw(st.integers(min_value=0, max_value=length + 8 - len(prefix)))):
        previous = prefix[-1] if prefix else None
        prefix += draw(st.sampled_from(ks.allowed_symbols(previous, base=base)))
    return region, prefix


class TestStringProperties:
    @given(kautz_strings())
    def test_generated_strings_are_valid(self, value):
        assert ks.is_kautz_string(value, base=2)

    @given(kautz_strings(min_length=3, max_length=8))
    def test_rank_unrank_roundtrip(self, value):
        assert ks.unrank(ks.rank(value), len(value)) == value

    @given(ranked_strings())
    def test_unrank_matches_positional_reference(self, case):
        base, length, index = case
        value = ks.unrank(index, length, base=base)
        assert value == reference_unrank(index, length, base=base)
        assert ks.rank(value, base=base) == reference_rank(value, base=base) == index

    @given(kautz_prefixes(max_length=6), st.integers(min_value=6, max_value=10))
    def test_extensions_are_valid_and_ordered(self, prefix, length):
        low = ks.min_extension(prefix, length)
        high = ks.max_extension(prefix, length)
        assert ks.is_kautz_string(low, base=2)
        assert ks.is_kautz_string(high, base=2)
        assert low.startswith(prefix) and high.startswith(prefix)
        assert low <= high

    @given(kautz_prefixes(max_length=5), st.integers(min_value=5, max_value=8))
    def test_extension_bounds_are_tight(self, prefix, length):
        """Every extension of the prefix lies between min and max extensions."""
        low = ks.min_extension(prefix, length)
        high = ks.max_extension(prefix, length)
        for value in ks.kautz_strings_with_prefix(prefix, length)[:32]:
            assert low <= value <= high

    @given(kautz_strings(max_length=6), kautz_strings(max_length=6))
    def test_splice_is_valid_and_has_both_parts(self, first, second):
        spliced = ks.splice(first, second)
        assert ks.is_kautz_string(spliced, base=2)
        assert spliced.startswith(first) or first.startswith(spliced)
        assert spliced.endswith(second)
        assert len(spliced) <= len(first) + len(second)

    @given(kautz_strings(min_length=4, max_length=8))
    def test_successor_is_next_in_order(self, value):
        nxt = ks.successor(value)
        if nxt is not None:
            assert nxt > value
            assert ks.rank(nxt) == ks.rank(value) + 1


class TestRegionProperties:
    @given(
        st.integers(min_value=5, max_value=7),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_region_size_matches_rank_difference(self, length, seed_a, seed_b):
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        low, high = min(first, second), max(first, second)
        region = KautzRegion(low, high)
        assert region.size == ks.rank(high) - ks.rank(low) + 1

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        kautz_prefixes(max_length=5),
    )
    def test_contains_prefix_agrees_with_enumeration(self, seed_a, seed_b, prefix):
        length = 6
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        region = KautzRegion(min(first, second), max(first, second))
        expected = any(member.startswith(prefix) for member in region)
        assert region.contains_prefix(prefix) == expected

    @settings(max_examples=300)
    @given(regions_and_prefixes())
    def test_contains_prefix_agrees_with_extensions(self, case):
        region, prefix = case
        assert region.contains_prefix(prefix) == extension_contains_prefix(region, prefix)

    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_split_by_first_symbol_partitions_region(self, seed_a, seed_b):
        length = 6
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        region = KautzRegion(min(first, second), max(first, second))
        parts = region.split_by_first_symbol()
        union = []
        for part in parts:
            assert part.common_prefix() != "" or region.common_prefix() != ""
            union.extend(part)
        assert sorted(union) == sorted(region)
        assert len(union) == len(set(union))
