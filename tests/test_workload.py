"""Synthetic workload: determinism, calibration, distribution laws."""

import math
import random
import statistics
from collections import Counter
from itertools import accumulate

import pytest

from dice.errors import EmptyTrace, InvalidConfig
from dice.workload import (
    CalibrationStats,
    WorkloadConfig,
    assign_mnos_to_countries,
    calibration_report,
    generate,
    powerlaw_probs,
    _geometric,
    _pick,
    _standard_normal,
    _top_share,
    solve_powerlaw_exponent,
)


def small_config(**kw):
    defaults = dict(seed=7, roamers_per_vmno_day=60_000, scale=0.001, days=14)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def trace_bytes(trace):
    return sum(b for rows in trace.traffic.values() for _, b in rows)


def test_same_seed_same_trace():
    a = generate(small_config())
    b = generate(small_config())
    assert a.arrivals == b.arrivals
    assert a.traffic == b.traffic


def test_different_seed_different_trace():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert a.arrivals != b.arrivals


def test_all_silent_means_zero_bytes():
    trace = generate(small_config(silent_fraction=1.0))
    assert trace_bytes(trace) == 0
    assert trace.traffic == {}


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        generate(small_config(days=0))
    with pytest.raises(InvalidConfig):
        generate(small_config(scale=-1))
    with pytest.raises(InvalidConfig):
        generate(small_config(churn_fraction_range=(0.5, 0.2)))
    with pytest.raises(InvalidConfig):
        generate(small_config(silent_fraction=1.5))


def test_empty_trace_report_raises():
    with pytest.raises(EmptyTrace):
        calibration_report(generate(small_config()).__class__(small_config()))


# --- power law calibration ------------------------------------------------------


def test_exponent_solver_hits_target_mass():
    for n, share in ((188, 0.60), (400, 0.50)):
        alpha = solve_powerlaw_exponent(n, 10, share)
        weights = [i ** -alpha for i in range(1, n + 1)]
        assert math.fsum(weights[:10]) / math.fsum(weights) == pytest.approx(share, abs=1e-6)


def test_degenerate_popularity():
    assert math.fsum(powerlaw_probs(1, 10, 0.6)) == pytest.approx(1.0)
    alpha = solve_powerlaw_exponent(5, 10, 0.6)
    assert alpha == 1.0  # fewer entities than the top-k window


def bisect_200_steps(n, top_k, target_share):
    """The solver as it was before it stopped at its fixed point."""
    if n <= top_k:
        return 1.0
    lo, hi = 0.0, 16.0
    if _top_share(hi, n, top_k) < target_share:
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _top_share(mid, n, top_k) < target_share:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@pytest.mark.parametrize("n, top_k, share", [
    (400, 10, 0.50), (188, 10, 0.60),   # the two default calls
    (5, 10, 0.6), (10, 10, 0.6),        # n <= top_k
    (11, 10, 0.5),                      # k/n >= target: lo stays 0.0
    (11, 10, 0.95), (20, 3, 0.15), (1000, 1, 0.999), (50, 10, 0.2), (2, 1, 0.5),
])
def test_exponent_solver_stops_at_the_same_float(n, top_k, share):
    assert solve_powerlaw_exponent(n, top_k, share) == bisect_200_steps(n, top_k, share)


def test_mno_country_assignment_tracks_targets():
    mno_probs = powerlaw_probs(400, 10, 0.50)
    country_probs = powerlaw_probs(188, 10, 0.60)
    assignment = assign_mnos_to_countries(mno_probs, country_probs)
    assert len(assignment) == 400
    induced = [0.0] * 188
    for m, c in enumerate(assignment):
        induced[c] += mno_probs[m]
    top10 = math.fsum(sorted(induced, reverse=True)[:10])
    assert top10 == pytest.approx(0.60, abs=0.05)


# --- statistical recount of the default 28-day trace -------------------------------


@pytest.fixture(scope="module")
def default_trace():
    return generate(WorkloadConfig())


def recount(trace):
    """Independent single-pass recount, no calibration_report involved."""
    arrivals = trace.arrivals
    silent = sum(a.silent for a in arrivals) / len(arrivals)
    stays = sorted(a.stay_days for a in arrivals)
    n = len(stays)
    median_stay = (stays[n // 2] if n % 2 else (stays[n // 2 - 1] + stays[n // 2]) / 2)
    daily = sorted(b for rows in trace.traffic.values() for _, b in rows)
    m = len(daily)
    median_daily = (daily[m // 2] if m % 2 else (daily[m // 2 - 1] + daily[m // 2]) / 2)
    country_counts: dict[str, int] = {}
    mno_bytes: dict[str, int] = {}
    for a in arrivals:
        country_counts[a.home_country] = country_counts.get(a.home_country, 0) + 1
        total = sum(b for _, b in trace.traffic.get(a.roamer, ()))
        if total:
            mno_bytes[a.hmno] = mno_bytes.get(a.hmno, 0) + total
    top10_c = sum(sorted(country_counts.values(), reverse=True)[:10]) / len(arrivals)
    total_bytes = sum(mno_bytes.values())
    top10_m = sum(sorted(mno_bytes.values(), reverse=True)[:10]) / total_bytes
    return silent, median_stay, median_daily, top10_c, top10_m


def test_default_trace_reproduces_published_statistics(default_trace):
    silent, median_stay, median_daily, top10_c, top10_m = recount(default_trace)
    assert abs(silent - 0.5) <= 0.03
    assert abs(median_stay - 2.5) <= 0.5
    assert abs(median_daily - 1_000_000) <= 0.2 * 1_000_000
    assert abs(top10_c - 0.60) <= 0.05
    assert abs(top10_m - 0.50) <= 0.05


def test_top10_mno_traffic_share_law_holds_over_seeds():
    """The law, not one draw: a few heavy roamers move one seed's share by
    several points (0.45-0.60 over seeds 1-30), so test the median."""
    shares = [calibration_report(generate(WorkloadConfig(seed=seed))).top10_mno_traffic_share
              for seed in range(1, 31)]
    assert abs(statistics.median(shares) - 0.50) <= 0.05


def test_calibration_report_matches_recount(default_trace):
    stats = calibration_report(default_trace)
    silent, median_stay, median_daily, top10_c, top10_m = recount(default_trace)
    assert stats.silent_share == pytest.approx(silent)
    assert stats.median_stay_days == pytest.approx(median_stay)
    assert stats.median_daily_traffic_bytes == pytest.approx(median_daily)
    assert stats.top10_country_share == pytest.approx(top10_c)
    assert stats.top10_mno_traffic_share == pytest.approx(top10_m)
    assert stats.total_bytes == trace_bytes(default_trace)
    assert stats.arrivals_total == len(default_trace.arrivals)


def test_churn_ratios_stay_in_band(default_trace):
    stats = calibration_report(default_trace)
    assert stats.churn_in_band_fraction >= 0.90
    # independent recount of the same ratio series
    cfg = default_trace.config
    arrivals_by_day = [0] * cfg.days
    for a in default_trace.arrivals:
        arrivals_by_day[a.day] += 1
    standing = [0] * cfg.days
    for a in default_trace.arrivals:
        for d in range(a.day + 1, min(a.day + a.stay_days, cfg.days)):
            standing[d] += 1
    ok = total = 0
    for d in range(cfg.days):
        if standing[d] == 0:
            continue
        total += 1
        if 0.08 <= arrivals_by_day[d] / standing[d] <= 0.33:
            ok += 1
    assert ok / total >= 0.90


def test_single_country_top10_is_everything():
    trace = generate(small_config(num_home_countries=1, num_home_mnos=4))
    stats = calibration_report(trace)
    assert stats.top10_country_share == pytest.approx(1.0)


def test_scale_linearity():
    # Churn pinned: drawn from a band, each day's arrivals scale the standing
    # population by a random factor, a multiplicative walk that no scale fixes.
    pinned = dict(seed=5, roamers_per_vmno_day=10_000, days=14, churn_fraction_range=(0.2, 0.2))
    base = WorkloadConfig(scale=1.0, **pinned)
    doubled = WorkloadConfig(scale=2.0, **pinned)
    t1 = generate(base)
    t2 = generate(doubled)
    ratio_arrivals = len(t2.arrivals) / len(t1.arrivals)
    ratio_bytes = trace_bytes(t2) / trace_bytes(t1)
    assert ratio_arrivals == pytest.approx(2.0, rel=0.05)
    assert ratio_bytes == pytest.approx(2.0, rel=0.05)


# --- sampler laws ------------------------------------------------------------------


def test_geometric_inversion_follows_the_pmf_and_gives_at_least_one():
    p, m = 0.24, 100_000
    counts = Counter(_geometric(p, j / m) for j in range(m))  # an even grid of u, 0 included
    for k in range(1, 30):
        assert counts[k] / m == pytest.approx((1 - p) ** (k - 1) * p, abs=2 / m)
    assert min(counts) == 1
    below_one = math.nextafter(1.0, 0.0)
    assert _geometric(p, 0.0) == 1                         # log(1 - 0) = 0 would give 0
    assert _geometric(1.0, below_one) == 1                 # log1p(-1) is -inf
    assert _geometric(below_one, below_one) == 1           # p -> 1


def test_box_muller_has_the_standard_normal_median_and_quartiles():
    rng = random.Random(12)
    q1, median, q3 = statistics.quantiles(
        (_standard_normal(rng.random(), rng.random()) for _ in range(40_000)), n=4)
    quartile = statistics.NormalDist().inv_cdf(0.75)
    assert median == pytest.approx(0.0, abs=0.03)
    assert q1 == pytest.approx(-quartile, abs=0.03)
    assert q3 == pytest.approx(quartile, abs=0.03)


def test_home_mnos_are_drawn_with_the_power_law_frequencies():
    probs = powerlaw_probs(400, 10, 0.50)
    cumulative, m = list(accumulate(probs)), 100_000
    counts = Counter(_pick(cumulative, j / m) for j in range(m))  # an even grid of u
    assert all(counts[i] / m == pytest.approx(p, abs=2 / m) for i, p in enumerate(probs))
    trace = generate(small_config(roamers_per_vmno_day=20_000_000, days=1))
    n = len(trace.arrivals)
    drawn = Counter(a.hmno for a in trace.arrivals)
    for rank, p in enumerate(probs[:10]):
        assert drawn[f"H{rank + 1:03d}"] / n == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n))


def test_daily_churn_stays_inside_its_band():
    lo, hi = 0.1, 0.3
    trace = generate(small_config(days=28, churn_fraction_range=(lo, hi)))
    arrivals = Counter(a.day for a in trace.arrivals)
    standing = Counter(d for a in trace.arrivals for d in range(a.day + 1, a.day + a.stay_days))
    for day in range(1, 28):
        assert lo * standing[day] - 0.5 <= arrivals[day] <= hi * standing[day] + 0.5
