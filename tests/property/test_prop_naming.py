"""Property-based tests for the Single_hash / Multiple_hash naming algorithms."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiple_hash import MultiAttributeNamer
from repro.core.single_hash import SingleAttributeNamer
from repro.kautz import strings as ks

NAMER = SingleAttributeNamer(low=0.0, high=1000.0, length=12)
MULTI = MultiAttributeNamer(intervals=((0.0, 100.0), (0.0, 50.0)), length=12)

values = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
coords = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


class TestSingleHashProperties:
    @given(values)
    def test_names_are_valid_fixed_length_kautz_strings(self, value):
        object_id = NAMER.name(value)
        assert len(object_id) == 12
        assert ks.is_kautz_string(object_id, base=2)

    @given(values, values)
    def test_order_preservation(self, first, second):
        if first <= second:
            assert NAMER.name(first) <= NAMER.name(second)
        else:
            assert NAMER.name(first) >= NAMER.name(second)

    @given(values)
    def test_inverse_interval_contains_value(self, value):
        object_id = NAMER.name(value)
        assert NAMER.value_interval(object_id).contains(value)

    @given(values, values, values)
    def test_values_inside_range_map_into_region(self, value, bound_a, bound_b):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        region = NAMER.region_for_range(low, high)
        if low <= value <= high:
            assert NAMER.name(value) in region

    @settings(max_examples=60)
    @given(values, values, values)
    def test_values_outside_range_never_lost_by_region(self, value, bound_a, bound_b):
        """Contrapositive of interval preservation: names outside the region
        belong to values outside the range."""
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        region = NAMER.region_for_range(low, high)
        if NAMER.name(value) not in region:
            assert not (low <= value <= high)


DEEP_NAMERS = (
    MultiAttributeNamer(intervals=((0.0, 1000.0), (0.0, 1000.0)), length=100),
    MultiAttributeNamer(intervals=((0.0, 1.0), (-5.0, 5.0), (0.0, 1e6)), length=64, base=3),
)


def reference_name(namer, point):
    """``Multiple_hash`` as a descent through Box/Interval objects."""
    box = namer.space
    previous = None
    label = []
    for depth in range(namer.length):
        choices = ks.allowed_symbols(previous, base=namer.base)
        attribute = depth % namer.dimensions
        interval = box.intervals[attribute]
        position = interval.locate(point[attribute], len(choices))
        previous = choices[position]
        label.append(previous)
        box = box.replace(attribute, interval.child(position, len(choices)))
    return "".join(label)


@st.composite
def deep_points(draw):
    """A namer and a point in its space, often on a subdivision boundary."""
    namer = draw(st.sampled_from(DEEP_NAMERS))
    point = []
    for interval in namer.space.intervals:
        grid = draw(st.sampled_from([2, 3, 64, 3 ** 5, 2 ** 20]))
        on_grid = interval.low + interval.width * draw(st.integers(0, grid)) / grid
        anywhere = draw(st.floats(interval.low, interval.high, allow_nan=False))
        point.append(draw(st.sampled_from([on_grid, anywhere])))
    return namer, point


class TestMultipleHashProperties:
    @settings(max_examples=300)
    @given(deep_points())
    def test_name_matches_box_descent(self, case):
        namer, point = case
        assert namer.name(point) == reference_name(namer, point)

    @given(coords)
    def test_names_are_valid_kautz_strings(self, point):
        object_id = MULTI.name(point)
        assert len(object_id) == 12
        assert ks.is_kautz_string(object_id, base=2)

    @given(coords, coords)
    def test_partial_order_preservation(self, first, second):
        if all(a <= b for a, b in zip(first, second)):
            assert MULTI.name(first) <= MULTI.name(second)

    @given(coords)
    def test_box_of_every_prefix_contains_the_point(self, point):
        object_id = MULTI.name(point)
        for cut in range(0, len(object_id) + 1, 3):
            assert MULTI.box_for_label(object_id[:cut]).contains(point)

    @given(coords, coords, coords)
    def test_matching_points_intersect_query_labels(self, point, corner_a, corner_b):
        ranges = [
            (min(corner_a[0], corner_b[0]), max(corner_a[0], corner_b[0])),
            (min(corner_a[1], corner_b[1]), max(corner_a[1], corner_b[1])),
        ]
        if all(low <= value <= high for value, (low, high) in zip(point, ranges)):
            object_id = MULTI.name(point)
            # MIRA's pruning predicate must keep every prefix of a matching
            # object's id alive.
            for cut in (2, 5, 9, 12):
                assert MULTI.label_intersects_query(object_id[:cut], ranges)
