"""Property tests for the Algorithm 1 schedules, canonical bound keys and
the ask/tell :class:`LayerScan`."""

import math
import random
import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.assessment import AssessmentConfig, LayerScan, _fine_bounds, bound_key

starts = st.one_of(
    # Decade starts (what Algorithm 1 actually feeds in: coarse bound / 10)...
    st.integers(min_value=-9, max_value=-1).map(lambda d: 10.0**d),
    # ...and arbitrary positive anchors, to pin the general contract.
    st.floats(min_value=1e-9, max_value=1e-1, allow_nan=False, allow_infinity=False),
)


class TestFineBoundsProperties:
    @given(start=starts, max_tests=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200)
    def test_strictly_increasing(self, start, max_tests):
        bounds = _fine_bounds(start, max_tests)
        assert len(bounds) == max_tests
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    @given(start=starts, max_tests=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200)
    def test_duplicate_free_under_canonical_key(self, start, max_tests):
        bounds = _fine_bounds(start, max_tests)
        keys = [bound_key(b) for b in bounds]
        assert len(set(keys)) == len(keys)

    @given(start=starts, max_tests=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200)
    def test_decade_consistent_and_drift_free(self, start, max_tests):
        """Every bound is exactly step * (start * 10^decade) — the
        multiplicative form, not an accumulated sum — with step cycling 1..9
        and the decade advancing once per cycle."""
        bounds = _fine_bounds(start, max_tests)
        step, decade = 1, 0
        for bound in bounds:
            assert bound == step * (start * 10.0**decade)
            step += 1
            if step == 10:
                step, decade = 1, decade + 1

    @given(start=starts, max_tests=st.integers(min_value=1, max_value=60))
    @settings(max_examples=100)
    def test_platform_independent_reconstruction(self, start, max_tests):
        """Recomputing the schedule gives the same floats (no accumulated
        state: each bound is a pure function of its position)."""
        assert _fine_bounds(start, max_tests) == _fine_bounds(start, max_tests)


class TestBoundKeyProperties:
    @given(
        step=st.integers(min_value=1, max_value=9),
        decade=st.integers(min_value=-9, max_value=2),
    )
    def test_grid_values_get_grid_keys(self, step, decade):
        assert bound_key(step * 10.0**decade) == f"{step}e{decade}"

    @given(
        step=st.integers(min_value=1, max_value=9),
        decade=st.integers(min_value=-9, max_value=-1),
    )
    def test_accumulated_sum_matches_grid_key(self, step, decade):
        """The historical additive schedule drifted; its sums must still
        canonicalise onto the same key as the exact grid value."""
        base = 10.0**decade
        acc = 0.0
        for _ in range(step):
            acc += base
        assert bound_key(acc) == bound_key(step * base)

    @given(st.floats(min_value=1e-12, max_value=1e3, allow_nan=False))
    def test_key_is_round_trip_stable(self, eb):
        """A key is a pure function of the float value."""
        assert bound_key(eb) == bound_key(float(repr(eb)))

    @given(
        step=st.integers(min_value=1, max_value=9),
        decade=st.integers(min_value=-9, max_value=-1),
    )
    def test_near_equal_values_collapse(self, step, decade):
        eb = step * 10.0**decade
        assert bound_key(eb * (1.0 + 1e-13)) == bound_key(eb)

    def test_degenerate_values_still_keyed(self):
        assert bound_key(0.0) == repr(0.0)
        assert bound_key(-1e-3) == repr(-1e-3)
        assert bound_key(math.inf) == repr(math.inf)

    def test_extreme_magnitudes_do_not_crash(self):
        # Subnormals underflow the 10**d probe, huge values overflow it;
        # both must fall back to the repr key instead of raising.
        assert bound_key(5e-324) == repr(5e-324)
        assert bound_key(1e308) == "1e308"
        assert bound_key(1.7e308) == repr(1.7e308)


BASELINE = 0.9


def _table(distortion_knee, stop_knee, jitters):
    """A non-monotone per-bound (accuracy, size) table.

    The degradation steps up at ``distortion_knee`` (past the 0.1%
    criterion) and again at ``stop_knee`` (past the 1% expected loss), plus
    a jitter keyed on the bound's *exact* float, so two near-equal bounds
    under one canonical key can score differently — as two real encodes
    can.
    """

    def evaluate(eb):
        slot = zlib.crc32(repr(eb).encode())
        level = 0.0 if eb < distortion_knee else 0.005 if eb < stop_knee else 0.02
        return BASELINE - (level + jitters[slot % len(jitters)]), 1000 + slot % 997

    return evaluate


def _algorithm1(evaluate, config):
    """Algorithm 1 as the paper writes it: the oracle for the scan."""
    points = {}

    def run(eb):
        key = bound_key(eb)
        if key not in points:
            accuracy, size = evaluate(eb)
            points[key] = (eb, accuracy, BASELINE - accuracy, size)
        return points[key][2]

    for beta in config.coarse_bounds:
        if run(beta) > config.distortion_criterion:
            for eb in _fine_bounds(beta / 10.0, config.max_fine_tests):
                if run(eb) > config.expected_accuracy_loss:
                    break
            break
    return sorted(points.values())


def _drive(evaluate, config, k, rng):
    """Run a scan in waves of ``ask(k)``, telling each wave in random order."""
    scan = LayerScan("fc", BASELINE, config)
    told = []
    while not scan.done:
        wave = scan.ask(k)
        assert 1 <= len(wave) <= k
        if not scan.fine:
            assert set(wave) <= set(config.coarse_bounds)
        rng.shuffle(wave)
        for eb in wave:
            scan.tell(eb, *evaluate(eb))
            told.append(eb)
    assert scan.ask(k) == []
    assert scan.told == len(told)
    return scan, told


coarse_schedules = st.tuples(
    st.sampled_from([1, 2, 3, 7, 9]),
    st.integers(min_value=-5, max_value=-2),
    st.integers(min_value=1, max_value=4),
).map(lambda t: tuple(float(f"{t[0]}e{d}") for d in range(t[1], t[1] + t[2])))
knees = st.integers(min_value=-60, max_value=5).map(lambda e: 10.0 ** (e / 10))


class TestLayerScanProperties:
    @given(
        coarse=coarse_schedules,
        max_fine_tests=st.integers(min_value=1, max_value=30),
        distortion_knee=knees,
        stop_knee=knees,
        jitters=st.lists(
            st.sampled_from([-0.004, 0.0, 0.003, 0.02]), min_size=1, max_size=6
        ),
        k=st.integers(min_value=1, max_value=8),
        rng=st.randoms(use_true_random=False),
    )
    # Speculation past a break at 3e-3 evaluates the coarse 0.03; the fine
    # scan later reaches 0.030000000000000002, the same canonical key at a
    # different float, and must evaluate it rather than reuse 0.03's result.
    @example(
        coarse=(3e-3, 3e-2, 3e-1),
        max_fine_tests=24,
        distortion_knee=1e-3,
        stop_knee=1.0,
        jitters=[0.0, 0.003],
        k=3,
        rng=random.Random(0),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_ask_size_records_the_serial_points(
        self, coarse, max_fine_tests, distortion_knee, stop_knee, jitters, k, rng
    ):
        config = AssessmentConfig(
            expected_accuracy_loss=0.01,
            coarse_bounds=coarse,
            max_fine_tests=max_fine_tests,
        )
        evaluate = _table(distortion_knee, stop_knee, jitters)
        serial, _ = _drive(evaluate, config, 1, rng)
        assert serial.told == len(serial.points)  # one at a time wastes nothing
        assert [
            (p.error_bound, p.accuracy, p.degradation, p.compressed_bytes)
            for p in serial.points
        ] == _algorithm1(evaluate, config)

        scan, told = _drive(evaluate, config, k, rng)
        assert scan.points == serial.points
        assert len(scan.points) == serial.told
        # No float is evaluated twice and each recorded point is backed by
        # its own tell, so told - recorded counts exactly the speculation
        # that was trimmed.
        recorded = {p.error_bound for p in scan.points}
        assert len(set(told)) == len(told)
        assert recorded <= set(told)
        assert scan.told - len(scan.points) == len(set(told) - recorded)
