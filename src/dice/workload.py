"""Deterministic synthetic inbound-roamer workload for one visited MNO.

The generator reproduces the published population dynamics of a real
operator: daily arrivals at 10-30% of the standing population, geometric
stays with a 2.5-day median, half the roamers silent, log-normal daily
traffic with a 1MB median, and power-law home-country / home-MNO
popularity calibrated so the top 10 carry the reported shares.  Every
variate is drawn, through the samplers below, from the ``random()`` stream
of one ``random.Random`` seeded from the config seed; no third-party
package is imported.

Each field read from outside (config knob, charging-spec key, report
figure) is declared by ``knob`` with its default and JSON-schema fragment;
``config_schema`` publishes them and ``_fault`` alone checks them, also
rejecting a non-finite number (an int beyond float range too) and a non-int
integer."""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
import statistics
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache

from . import codec
from .errors import EmptyTrace, InvalidConfig

# JSON-schema fragments shared by several config fields.
COUNT = {"type": "integer", "minimum": 1}
POSITIVE = {"type": "number", "exclusiveMinimum": 0}
SHARE = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
FRACTION = {"type": "number", "minimum": 0, "maximum": 1}
TALLY = {"type": "integer", "minimum": 0}   # a count that may be zero
AMOUNT = {"type": "number", "minimum": 0}   # a money amount


def knob(default, schema: dict):
    """A declared field: its default (``MISSING`` for none) and its values' JSON-schema fragment."""
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata={"schema": schema})
    return field(default=default, metadata={"schema": schema})


@cache
def config_schema(cls) -> dict:
    """The JSON schema of a class of declared fields, built once per class."""
    properties = {f.name: f.metadata["schema"] for f in fields(cls)}
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", "type": "object",
            "additionalProperties": False, "properties": properties, "required": required}


# JSON-schema types; bool is not a number, and an integer is an exact int (not 2.0).
_TYPES = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: type(v) is bool,
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _fault(schema: dict, value, path: str) -> str | None:
    """``path: reason`` if ``value`` does not fit the schema fragment, else None."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return f"{path}: {value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{path}: {value!r} is not one of {schema['enum']!r}"
    if kind in ("integer", "number"):
        # Bounds compare false against NaN, and an int no float holds is not finite.
        if kind == "number" and not abs(value) <= sys.float_info.max:
            return f"{path}: {value!r} is not finite"
        if "minimum" in schema and value < schema["minimum"]:
            return f"{path}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return (f"{path}: {value!r} is less than or equal to the minimum of "
                    f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            return f"{path}: {value!r} is greater than the maximum of {schema['maximum']!r}"
    elif kind == "string" and len(value) < schema.get("minLength", 0):
        return f"{path}: {value!r} is too short"
    elif kind == "array":
        if len(value) < schema.get("minItems", 0):
            return f"{path}: {value!r} is too short"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return f"{path}: {value!r} is too long"
        for i, item in enumerate(value):
            fault = _fault(schema.get("items", {}), item, f"{path}[{i}]")
            if fault:
                return fault
    elif kind == "object":
        missing = [name for name in schema.get("required", ()) if name not in value]
        if missing:
            return f"{path}: {missing[0]!r} is a required property"
        properties, others = schema.get("properties", {}), schema.get("additionalProperties", {})
        for name, item in value.items():
            fragment = properties.get(name, others)
            fault = (f"{path}.{name}: not a declared field" if fragment is False
                     else _fault(fragment, item, f"{path}.{name}"))
            if fault:
                return fault
    return None


def _check_schema(cls, data) -> None:
    """Raise InvalidConfig naming the first field of ``data`` that is missing,
    unknown or does not fit its fragment in ``config_schema(cls)``."""
    fault = _fault(config_schema(cls), data, "$")
    if fault:
        raise InvalidConfig(fault)


def _require_float_range(**figures: int) -> None:
    """Raise InvalidConfig naming the first int figure no float holds (integer knobs have no maximum)."""
    for name, value in figures.items():
        if abs(value) > sys.float_info.max:
            raise InvalidConfig(f"{name} is beyond float range; every figure must be finite")


@dataclass
class WorkloadConfig:
    """Generator knobs; each field states its default and JSON-schema fragment once."""

    seed: int = knob(42, {"type": "integer", "minimum": 0})
    roamers_per_vmno_day: int = knob(400_000, COUNT)  # standing inbound population, full scale
    churn_fraction_range: tuple[float, float] = knob(
        (0.10, 0.30), {"type": "array", "items": FRACTION, "minItems": 2, "maxItems": 2})
    stay_days_median: float = knob(2.5, POSITIVE)
    silent_fraction: float = knob(0.5, FRACTION)
    daily_traffic_median_bytes: int = knob(1_000_000, COUNT)
    traffic_dispersion: float = knob(1.0, {"type": "number", "minimum": 0})  # log-scale sigma
    home_country_top10_share: float = knob(0.60, SHARE)
    home_mno_top10_traffic_share: float = knob(0.50, SHARE)
    num_home_countries: int = knob(188, COUNT)
    num_home_mnos: int = knob(400, COUNT)
    days: int = knob(28, COUNT)
    scale: float = knob(0.001, POSITIVE)  # desk-scale downsampling factor

    def validate(self) -> None:
        """Raise InvalidConfig unless the fields fit the schema (every number
        finite), the generator can scale the population, the churn band is
        ordered, and a stay can end."""
        _check_schema(type(self), self.to_dict())
        _require_float_range(roamers_per_vmno_day=self.roamers_per_vmno_day)
        lo, hi = self.churn_fraction_range
        if lo > hi:
            raise InvalidConfig(f"$.churn_fraction_range: {lo} > {hi}")
        if 2.0 ** (-1.0 / self.stay_days_median) == 1.0:   # generate's p_depart would be 0
            raise InvalidConfig(f"$.stay_days_median: {self.stay_days_median!r} is too long to end a stay")

    def to_dict(self) -> dict:
        """The JSON form: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, raw):
        """The validated config of a JSON object; absent fields keep their defaults."""
        _check_schema(cls, raw)  # unknown fields and wrong types, before construction
        config = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        config.validate()
        return config


@dataclass
class Arrival:
    day: int
    roamer: str
    hmno: str
    home_country: str
    stay_days: int
    silent: bool


@dataclass
class SessionEventTrace:
    config: WorkloadConfig
    arrivals: list[Arrival] = field(default_factory=list)
    # roamer -> [(day, bytes), ...], present only for non-silent roamers
    traffic: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


# --- popularity laws ---------------------------------------------------------


def _top_share(alpha: float, n: int, k: int) -> float:
    weights = [i ** -alpha for i in range(1, n + 1)]
    return math.fsum(weights[:k]) / math.fsum(weights)


def solve_powerlaw_exponent(n: int, top_k: int, target_share: float) -> float:
    """Exponent of a truncated discrete power law whose top-k mass matches
    the target; solved by bisection on [0, 16] (the share is monotone in
    alpha, and a target above the share at 16 converges to 16)."""
    if n <= top_k:
        return 1.0
    lo, hi = 0.0, 16.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break  # a fixed point: every later halving would keep lo and hi
        if _top_share(mid, n, top_k) < target_share:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def powerlaw_probs(n: int, top_k: int, target_share: float) -> list[float]:
    alpha = solve_powerlaw_exponent(n, top_k, target_share)
    weights = [i ** -alpha for i in range(1, n + 1)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def assign_mnos_to_countries(mno_probs: list[float], country_probs: list[float]) -> list[int]:
    """Greedy mapping of MNO ranks onto countries so the country mass
    induced by drawing an MNO tracks the country popularity targets: each
    MNO goes to the country with the largest deficit left (the lowest index
    among equals), which a heap of (-deficit, country) pops first."""
    heap = [(-share, c) for c, share in enumerate(country_probs)]
    heapq.heapify(heap)
    assignment = []
    for p in mno_probs:
        neg_deficit, c = heap[0]
        assignment.append(c)
        heapq.heapreplace(heap, (neg_deficit + p, c))
    return assignment


# --- samplers -------------------------------------------------------------------
#
# Each variate is a function of draws ``u`` in [0, 1) from one
# ``random.Random(seed).random``, whose stream Python keeps across versions;
# it promises no such thing for ``choices``, ``uniform``, ``gauss`` or
# ``lognormvariate``, nor does NumPy for its ``Generator`` methods.


def _geometric(p: float, u: float) -> int:
    """The geometric law on 1, 2, ... (success probability ``p``) by inversion:
    ``ceil(log(1 - u) / log(1 - p))``, at least 1, so ``u = 0`` and ``p = 1`` give 1."""
    if p >= 1.0:
        return 1
    return max(1, math.ceil(math.log(1.0 - u) / math.log1p(-p)))


def _standard_normal(u1: float, u2: float) -> float:
    """One standard normal variate by Box-Muller (``1 - u1`` is never 0)."""
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _pick(cumulative: list[float], u: float) -> int:
    """The index whose slice of the cumulative weights holds ``u * total``; the
    last index also takes any rounding at the top."""
    return bisect.bisect_right(cumulative, u * cumulative[-1], 0, len(cumulative) - 1)


# --- generation ---------------------------------------------------------------


def generate(config: WorkloadConfig) -> SessionEventTrace:
    """Pure function of the config: same seed, byte-identical trace."""
    config.validate()
    draw = random.Random(codec.derive_seed(config.seed, "workload")).random
    trace = SessionEventTrace(config)

    mno_probs = powerlaw_probs(config.num_home_mnos, 10, config.home_mno_top10_traffic_share)
    country_probs = powerlaw_probs(config.num_home_countries, 10, config.home_country_top10_share)
    mno_country = assign_mnos_to_countries(mno_probs, country_probs)
    mno_cumulative = list(itertools.accumulate(mno_probs))

    # Daily departure probability of the geometric stay law, parameterized
    # so the interpolated median sits at the configured value.
    p_depart = 1.0 - 2.0 ** (-1.0 / config.stay_days_median)
    mu = math.log(config.daily_traffic_median_bytes)
    sigma = config.traffic_dispersion
    lo, hi = config.churn_fraction_range

    cohort = max(1, round(config.roamers_per_vmno_day * config.scale))
    active: list[Arrival] = []
    seq = 0

    for day in range(config.days):
        if day == 0:
            n_arrivals = cohort  # initial standing population
        else:
            n_arrivals = round((lo + (hi - lo) * draw()) * len(active))
        for _ in range(n_arrivals):
            stay = _geometric(p_depart, draw())
            silent = draw() < config.silent_fraction
            home = _pick(mno_cumulative, draw())
            arrival = Arrival(
                day=day,
                roamer=f"r-{seq:07d}",
                hmno=f"H{home + 1:03d}",
                home_country=f"C{mno_country[home] + 1:03d}",
                stay_days=stay,
                silent=silent,
            )
            seq += 1
            trace.arrivals.append(arrival)
            active.append(arrival)
        # Log-normal traffic for every non-silent roamer active today.
        for arrival in active:
            if not arrival.silent:
                try:
                    nbytes = max(1, round(math.exp(mu + sigma * _standard_normal(draw(), draw()))))
                except OverflowError:  # depends on the draw, so validate cannot catch it
                    raise InvalidConfig("a daily traffic draw is beyond float range; lower "
                                        "traffic_dispersion or daily_traffic_median_bytes") from None
                trace.traffic.setdefault(arrival.roamer, []).append((day, nbytes))
        # Departures at end of day.
        active = [a for a in active if a.day + a.stay_days > day + 1]
    return trace


# --- calibration ---------------------------------------------------------------


@dataclass
class CalibrationStats:
    arrivals_total: int
    silent_share: float
    median_stay_days: float
    median_daily_traffic_bytes: float
    top10_country_share: float
    top10_mno_traffic_share: float
    total_bytes: int
    days: int
    churn_in_band_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def calibration_report(trace: SessionEventTrace) -> CalibrationStats:
    """Single-pass recount of the raw trace; no generator state involved."""
    if not trace.arrivals:
        raise EmptyTrace("no arrivals in trace")
    config = trace.config

    silent = sum(1 for a in trace.arrivals if a.silent)
    daily = [b for rows in trace.traffic.values() for _, b in rows]

    by_country: dict[str, int] = {}
    bytes_by_mno: dict[str, int] = {}
    for a in trace.arrivals:
        by_country[a.home_country] = by_country.get(a.home_country, 0) + 1
    for a in trace.arrivals:
        rows = trace.traffic.get(a.roamer)
        if rows:
            bytes_by_mno[a.hmno] = bytes_by_mno.get(a.hmno, 0) + sum(b for _, b in rows)

    def top10_share(counts: dict[str, int]) -> float:
        values = sorted(counts.values(), reverse=True)
        total = sum(values)
        return sum(values[:10]) / total if total else 0.0

    # Daily churn ratio: arrivals over the population standing at day start.
    arrivals_by_day = [0] * config.days
    for a in trace.arrivals:
        arrivals_by_day[a.day] += 1
    active_start = [0] * config.days
    for a in trace.arrivals:
        for d in range(a.day + 1, min(a.day + a.stay_days, config.days)):
            active_start[d] += 1
    lo, hi = config.churn_fraction_range
    band_lo, band_hi = lo * 0.8, hi * 1.1  # tolerance around the configured band
    in_band = 0
    measurable = 0
    for d in range(config.days):
        if active_start[d] == 0:
            continue
        measurable += 1
        ratio = arrivals_by_day[d] / active_start[d]
        if band_lo <= ratio <= band_hi:
            in_band += 1

    return CalibrationStats(
        arrivals_total=len(trace.arrivals),
        silent_share=silent / len(trace.arrivals),
        median_stay_days=float(statistics.median(a.stay_days for a in trace.arrivals)),
        median_daily_traffic_bytes=float(statistics.median(daily)) if daily else 0.0,
        top10_country_share=top10_share(by_country),
        top10_mno_traffic_share=top10_share(bytes_by_mno),
        total_bytes=sum(daily),
        days=config.days,
        churn_in_band_fraction=in_band / measurable if measurable else 0.0,
    )

