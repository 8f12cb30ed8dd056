"""Experiment harness reproducing the paper's §5.1 methodology.

One *round* co-browses all 20 Table-1 homepages in a given mode (cache
or non-cache) on a fresh testbed with cleaned caches; the procedure is
repeated several times (the paper uses five) and per-site averages are
reported.  The polling interval is one second, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.session import CoBrowsingSession
from ..obs import Histogram, MetricsRegistry, Tracer
from ..webserver.sites import TABLE1_SITES, SiteSpec
from ..workloads.environments import build_lan, build_wan
from .metrics import SiteMeasurement, average_measurements, measure_site_cobrowsing

__all__ = ["ExperimentResult", "run_round", "run_experiment", "POLL_INTERVAL"]

#: The paper sets Ajax-Snippet's polling interval to one second.
POLL_INTERVAL = 1.0


class ExperimentResult:
    """Per-site averaged measurements for one (environment, mode) cell.

    ``metrics`` (optional, set by :func:`run_experiment`) is the registry
    the rounds published into; its ``m5_seconds`` / ``m6_seconds``
    histograms hold every raw per-site observation across all rounds —
    the distributions behind the report's p50/p95/p99 columns.
    """

    def __init__(
        self,
        environment: str,
        cache_mode: bool,
        rows: List[SiteMeasurement],
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.environment = environment
        self.cache_mode = cache_mode
        self.rows = rows
        self.metrics = metrics

    def distribution(self, name: str) -> Optional[Histogram]:
        """A named histogram from the run's registry (None if absent)."""
        if self.metrics is None:
            return None
        instrument = self.metrics.find(name)
        return instrument if isinstance(instrument, Histogram) else None

    def by_site(self) -> Dict[str, SiteMeasurement]:
        """Rows indexed by site name."""
        return {row.site: row for row in self.rows}

    def sites_where(self, predicate) -> List[str]:
        """Names of sites whose row satisfies ``predicate``."""
        return [row.site for row in self.rows if predicate(row)]

    def __repr__(self):
        return "ExperimentResult(%s, cache=%s, %d sites)" % (
            self.environment,
            self.cache_mode,
            len(self.rows),
        )


def run_round(
    environment: str = "lan",
    cache_mode: bool = True,
    sites: Optional[Sequence[SiteSpec]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> List[SiteMeasurement]:
    """One round: fresh testbed, cleaned caches, visit every site once.

    ``metrics``/``tracer`` are threaded into the session so an
    experiment-level registry accumulates every round's instruments (and,
    with a tracer, every poll exchange's spans).
    """
    if environment == "lan":
        testbed = build_lan()
    elif environment == "wan":
        testbed = build_wan()
    else:
        raise ValueError("unknown environment %r" % (environment,))
    sites = list(sites if sites is not None else TABLE1_SITES)

    session = CoBrowsingSession(
        testbed.host_browser,
        cache_mode=cache_mode,
        poll_interval=POLL_INTERVAL,
        metrics=metrics,
        tracer=tracer,
    )
    testbed.clear_caches()

    measurements: List[SiteMeasurement] = []

    def round_process():
        snippet = yield from session.join(testbed.participant_browser)
        for spec in sites:
            row = yield from measure_site_cobrowsing(
                testbed, session, snippet, spec.host, spec.page_kb
            )
            measurements.append(row)
        session.leave(snippet)

    testbed.run(round_process())
    session.close()
    return measurements


def run_experiment(
    environment: str = "lan",
    cache_mode: bool = True,
    repetitions: int = 5,
    sites: Optional[Sequence[SiteSpec]] = None,
    tracer: Optional[Tracer] = None,
) -> ExperimentResult:
    """The full §5.1 procedure: ``repetitions`` rounds, averaged.

    Beyond the averaged rows, every raw per-site M5/M6 observation lands
    in the result registry's ``m5_seconds``/``m6_seconds`` histograms, so
    the tails survive the averaging.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    sites = list(sites if sites is not None else TABLE1_SITES)
    registry = MetricsRegistry()
    m5 = registry.histogram("m5_seconds")
    m6 = registry.histogram("m6_seconds")
    per_site: Dict[str, List[SiteMeasurement]] = {spec.host: [] for spec in sites}
    for _ in range(repetitions):
        for row in run_round(environment, cache_mode, sites, metrics=registry, tracer=tracer):
            per_site[row.site].append(row)
            m5.observe(row.m5)
            m6.observe(row.m6)
    rows = [average_measurements(per_site[spec.host]) for spec in sites]
    return ExperimentResult(environment, cache_mode, rows, metrics=registry)
