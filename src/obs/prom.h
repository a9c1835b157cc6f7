// Prometheus text exposition (version 0.0.4) for MetricsRegistry snapshots.
//
// The renderer is the payload of the admin channel's STATS verb: one call
// turns a full registry snapshot (counters, gauges, fixed-layout histograms
// including the window-QoS gauges) into the text format every Prometheus
// scraper, including promtool, ingests directly. Its round-trip oracle, a
// strict parser for the same dialect, lives with the tests
// (tests/support/prom_parse.h): they assert parse(render(snapshot)) ==
// snapshot, so a rendering bug (bad escaping, non-cumulative buckets,
// missing +Inf) cannot ship silently.
//
// Dialect restrictions:
//  - values are integers (every instrument here is integral) — a strict
//    subset, still valid exposition text;
//  - histogram buckets render cumulatively with a final le="+Inf" bucket,
//    _sum and _count lines, per the format spec;
//  - every series is preceded by its # TYPE line.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace hds::obs {

// Renders every series, grouped by name under one # TYPE comment, names and
// label sets in sorted order. Histograms expand to _bucket/_sum/_count.
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snap);

}  // namespace hds::obs
