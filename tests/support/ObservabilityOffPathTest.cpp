//===- tests/support/ObservabilityOffPathTest.cpp - Off-path cost ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The zero-cost contract for observability when it is not wanted: in
// the default production state nothing is armed, and spans, metric
// recordings, flight-recorder spans, journal events and sampler ticks
// must observably do nothing. No test in this binary arms the flight
// recorder, the journal or the sampler, so they are checked in their
// never-armed state.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Sampler.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace pdt;

TEST(ObservabilityOffPath, DisarmedSpanRecordsNothing) {
  Trace::stop();
  Trace::clear();
  ASSERT_FALSE(FlightRecorder::enabled());
  {
    Span S("off-path-span", "test");
    Span Nested("off-path-nested", "test");
  }
  EXPECT_TRUE(Trace::snapshot().empty());
  EXPECT_FALSE(Trace::enabled());

  EXPECT_TRUE(FlightRecorder::snapshot().empty());
  FlightRecorder::Stats Flight = FlightRecorder::stats();
  EXPECT_EQ(Flight.Recorded, 0u);
  EXPECT_EQ(Flight.Threads, 0u);
  EXPECT_EQ(Flight.BytesInUse, 0u);
  EXPECT_FALSE(FlightRecorder::enabled());
}

TEST(ObservabilityOffPath, DisarmedMetricsRecordNothing) {
  Metrics::stop();
  Metrics::reset();
  ASSERT_FALSE(EventLog::enabled());
  ASSERT_FALSE(Sampler::enabled());
  Metrics::count(Metric::PairsTested);
  Metrics::gaugeMax(Gauge::PoolQueueDepth, 99);
  Metrics::observe(Histo::DeltaNs, 12345);
  Metrics::countDegraded(0);
  { LatencyTimer T(Histo::PairTestNs); }
  EventLog::event(EventSeverity::Error, "test", "off-path-event", "detail",
                  {{"n", 1}});
  size_t Series = Sampler::registerSeries("off-path-series", [] {
    return uint64_t(7);
  });
  Sampler::sampleOnceForTest();
  Sampler::unregisterSeries(Series);
  Sampler::stop();
  EXPECT_EQ(Metrics::snapshot(), MetricsSnapshot());
  EXPECT_FALSE(Metrics::enabled());

  EXPECT_EQ(EventLog::counts().total(), 0u);
  EXPECT_EQ(EventLog::counts().Suppressed, 0u);
  EXPECT_TRUE(EventLog::recentLines().empty());
  EXPECT_FALSE(EventLog::enabled());

  EXPECT_EQ(Sampler::summary().Samples, 0u);
  EXPECT_TRUE(Sampler::recentLines().empty());
  EXPECT_FALSE(Sampler::enabled());
}
