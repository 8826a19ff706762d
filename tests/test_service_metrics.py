"""Service metrics: histogram quantiles and the Prometheus text rendering.

``Histogram.quantile`` estimates from bucket upper bounds, which can lie
beyond every observed sample; the estimate is clamped to the observed
``[min, max]``.  ``render_text`` must be valid Prometheus exposition:
every line ``name[{labels}] <float>``, with strings carried as labels.
"""

import re

from repro.service.metrics import Histogram, MetricsRegistry, render_text

LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"\})?'
    r' (?P<value>\S+)$'
)


def assert_exposition(text: str) -> list[re.Match]:
    matches = []
    for line in text.splitlines():
        match = LINE.match(line)
        assert match, f"not name[{{labels}}] <float>: {line!r}"
        float(match["value"])
        matches.append(match)
    return matches


class TestHistogramQuantile:
    def test_one_sample_is_every_quantile(self):
        hist = Histogram()
        hist.observe(0.347)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == 0.347

    def test_clamped_to_observed_range(self):
        hist = Histogram()
        for seconds in (0.2, 0.3, 0.347):
            hist.observe(seconds)
        # All three share the (0.1, 0.5] bucket, whose bound is 0.5.
        assert hist.quantile(0.95) == 0.347
        assert hist.quantile(0.5) == 0.347
        assert hist.to_json()["p95_seconds"] <= hist.max

    def test_bucket_bound_below_min_is_raised_to_min(self):
        # q = 0 stops at the first (empty) bucket, bound 1 ms.
        hist = Histogram()
        hist.observe(0.2)
        hist.observe(0.3)
        assert hist.quantile(0.0) == 0.2

    def test_empty_histogram_has_no_quantile(self):
        assert Histogram().quantile(0.5) is None


class TestRenderText:
    def snapshot(self) -> dict:
        registry = MetricsRegistry()
        registry.count("jobs_submitted", 3)
        registry.observe("calm-verdict", 0.25)
        registry.observe("consistency", 0.002)
        snap = registry.snapshot(started_at="2026-01-01T00:00:00Z")
        snap["engine"] = {"lifetime": "serial", "workers": 0, "healthy": True}
        snap["run_cache"] = {"bytes": 10, "path": None, "note": 'a "quoted"\nvalue'}
        return snap

    def test_every_line_parses(self):
        matches = assert_exposition(render_text(self.snapshot()))
        names = {m["name"] for m in matches}
        assert "repro_jobs_jobs_submitted" in names
        assert "repro_latency_calm_verdict_count" in names
        assert "repro_latency_consistency_buckets_le_0_001" in names

    def test_strings_become_info_labels(self):
        text = render_text(self.snapshot())
        assert 'repro_engine_lifetime_info{value="serial"} 1' in text.splitlines()
        assert 'repro_run_cache_note_info{value="a \\"quoted\\"\\nvalue"} 1' in text
        assert "repro_engine_healthy 1" in text.splitlines()
        assert "repro_run_cache_path NaN" in text.splitlines()
