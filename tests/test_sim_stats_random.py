"""Unit and property tests for the stats collectors and RNG streams."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cdf, RngStream, SeedSequence, TimeSeries


class TestCdf:
    def test_fractions(self):
        cdf = Cdf([1, 2, 3, 4])
        assert cdf.fraction_at_or_below(2) == 0.5
        assert cdf.fraction_at_or_below(0) == 0.0
        assert cdf.fraction_above(3) == 0.25

    def test_percentiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.percentile(50) == 50
        assert cdf.percentile(90) == 90
        assert cdf.percentile(100) == 100
        assert cdf.min() == 1 and cdf.max() == 100

    def test_add_after_query_resorts(self):
        cdf = Cdf([5, 1])
        assert cdf.median() == 1 or cdf.median() == 5  # sorted lazily
        cdf.add(0)
        assert cdf.min() == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Cdf().median()
        with pytest.raises(ValueError):
            Cdf().fraction_at_or_below(1)

    def test_points_downsampled_and_monotone(self):
        cdf = Cdf(range(1000))
        pts = cdf.points(max_points=50)
        assert len(pts) <= 60
        assert pts[-1][1] == 1.0
        ys = [y for _, y in pts]
        assert ys == sorted(ys)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentile_bounds_property(self, values):
        cdf = Cdf(values)
        assert cdf.min() <= cdf.median() <= cdf.max()
        assert cdf.fraction_at_or_below(cdf.max()) == 1.0


class TestTimeSeries:
    def test_ordering_enforced(self):
        series = TimeSeries()
        series.add(1.0, 10.0)
        series.add(2.0, 20.0)
        with pytest.raises(ValueError):
            series.add(1.5, 15.0)

    def test_means(self):
        series = TimeSeries()
        for t in range(10):
            series.add(float(t), float(t))
        assert series.mean() == 4.5


class TestRngStreams:
    def test_named_streams_independent_and_reproducible(self):
        seeds = SeedSequence(42)
        a1 = [seeds.stream("a").random() for _ in range(3)]
        a2 = [SeedSequence(42).stream("a").random() for _ in range(3)]
        b = [seeds.stream("b").random() for _ in range(3)]
        assert a1 == a2
        assert a1 != b

    def test_child_sequences_differ(self):
        parent = SeedSequence(1)
        assert parent.child("x").seed != parent.child("y").seed
        assert parent.child("x").seed == SeedSequence(1).child("x").seed

    def test_exponential_mean(self):
        rng = RngStream(7)
        samples = [rng.exponential(4.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.05)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RngStream(1).exponential(0.0)

    def test_choice_weighted_validates(self):
        rng = RngStream(2)
        with pytest.raises(ValueError):
            rng.choice_weighted([1, 2], [1.0])
        assert rng.choice_weighted(["only"], [1.0]) == "only"
