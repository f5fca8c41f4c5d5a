"""Unit tests for Kautz regions (Definition 1 and PIRA's pruning predicate)."""

from __future__ import annotations

import pytest

from repro.kautz import strings as ks
from repro.kautz.region import KautzRegion


class TestConstruction:
    def test_paper_example_region(self):
        # Definition 1: <010, 021> = {010, 012, 020, 021}.
        region = KautzRegion("010", "021")
        assert sorted(region) == ["010", "012", "020", "021"]
        assert region.size == 4

    def test_single_string_region(self):
        region = KautzRegion("012", "012")
        assert list(region) == ["012"]
        assert region.size == 1

    def test_invalid_order_raises(self):
        with pytest.raises(ks.KautzStringError):
            KautzRegion("021", "010")

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ks.KautzStringError):
            KautzRegion("01", "021")

    def test_invalid_endpoint_raises(self):
        with pytest.raises(ks.KautzStringError):
            KautzRegion("011", "021")


class TestMembership:
    def test_contains_endpoints_and_interior(self):
        region = KautzRegion("0120", "0202")
        assert "0120" in region
        assert "0202" in region
        assert "0121" in region
        assert "0201" in region

    def test_excludes_outside(self):
        region = KautzRegion("0120", "0202")
        assert "0102" not in region
        assert "0210" not in region

    def test_wrong_length_not_member(self):
        region = KautzRegion("0120", "0202")
        assert "012" not in region

    def test_size_matches_enumeration(self):
        region = KautzRegion("0120", "0212")
        assert region.size == len(list(region))


class TestCommonPrefix:
    def test_common_prefix(self):
        assert KautzRegion("0120", "0202").common_prefix() == "0"
        assert KautzRegion("0120", "0121").common_prefix() == "012"
        assert KautzRegion("0101", "2121").common_prefix() == ""


class TestContainsPrefix:
    def test_prefix_inside_region(self):
        region = KautzRegion("0120", "0202")
        assert region.contains_prefix("012")
        assert region.contains_prefix("020")
        assert region.contains_prefix("0")

    def test_prefix_outside_region(self):
        region = KautzRegion("0120", "0202")
        assert not region.contains_prefix("1")
        assert not region.contains_prefix("2")
        assert not region.contains_prefix("0101")

    def test_empty_prefix_always_contained(self):
        assert KautzRegion("0120", "0202").contains_prefix("")

    def test_prefix_longer_than_region_length(self):
        region = KautzRegion("0120", "0202")
        assert region.contains_prefix("01201")  # its first 4 symbols are in the region
        assert not region.contains_prefix("02101")

    def test_invalid_prefix_raises(self):
        region = KautzRegion("0120", "0202")
        for prefix in ("00", "3", "01200"):  # the last has a valid head
            with pytest.raises(ks.KautzStringError):
                region.contains_prefix(prefix)

    def test_contains_prefix_matches_enumeration(self):
        region = KautzRegion("01210", "02021")
        members = set(region)
        for prefix_length in range(1, 5):
            for prefix in ks.kautz_strings_with_prefix("", prefix_length, base=2):
                expected = any(member.startswith(prefix) for member in members)
                assert region.contains_prefix(prefix) == expected

    def test_intersect_prefix_count(self):
        region = KautzRegion("0120", "0202")
        assert region.intersect_prefix_count("012") == 2  # 0120, 0121
        assert region.intersect_prefix_count("1") == 0
        assert region.intersect_prefix_count("0120") == 1
        total = sum(
            region.intersect_prefix_count(prefix)
            for prefix in ("010", "012", "020", "021")
        )
        assert total == region.size


class TestSplitting:
    def test_region_with_common_prefix_is_not_split(self):
        region = KautzRegion("0120", "0202")
        assert region.split_by_first_symbol() == [region]

    def test_split_covers_region_exactly(self):
        region = KautzRegion("0121", "2101")
        parts = region.split_by_first_symbol()
        assert 2 <= len(parts) <= 3
        union = set()
        for part in parts:
            assert part.common_prefix() != ""
            union |= set(part)
        assert union == set(region)

    def test_full_space_split_into_three(self):
        region = KautzRegion("0101", "2121")
        parts = region.split_by_first_symbol()
        assert len(parts) == 3
        assert [part.low[0] for part in parts] == ["0", "1", "2"]

    def test_union_size_helper(self):
        first = KautzRegion("010", "012")
        second = KautzRegion("012", "021")
        assert first.union_size(second) == len(set(first) | set(second))
        with pytest.raises(ks.KautzStringError):
            first.union_size(KautzRegion("0101", "0121"))
