// The what-if memo contract (docs/DESIGN.md §11): memoization is exact. A
// full simulated run — every per-query record, the TTI summary, the
// resource ticks, and the decision trace — is byte-identical whether or
// not probes go through the memo's variant level (verification off vs on),
// and across MISO_THREADS in {1, 2, 8}.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../test_util.h"
#include "obs/trace.h"
#include "sim/report_io.h"
#include "sim/simulator.h"
#include "verify/verify_gate.h"

namespace miso::sim {
namespace {

using testing_util::PaperCatalog;

struct TracedReport {
  RunReport report;
  std::vector<std::string> trace;
};

/// One paper-workload run with the decision trace captured, `threads`
/// resolved through MISO_THREADS (the knob the contract is stated in).
TracedReport TracedRun(const SimConfig& base, int threads) {
  obs::Trace().Drain();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", threads);
  setenv("MISO_THREADS", buf, /*overwrite=*/1);
  SimConfig config = base;
  config.threads = 0;  // resolve through MISO_THREADS
  config.trace = true;
  auto report = RunPaperWorkload(&PaperCatalog(), config, /*seed=*/42);
  unsetenv("MISO_THREADS");
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return {std::move(report).value(), obs::Trace().Drain()};
}

void ExpectByteIdentical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(QueriesToCsv(a), QueriesToCsv(b));
  EXPECT_EQ(SummaryToCsv(a, /*with_header=*/false),
            SummaryToCsv(b, /*with_header=*/false));
  EXPECT_EQ(TicksToCsv(a), TicksToCsv(b));
  EXPECT_EQ(a.Tti(), b.Tti());
}

TEST(WhatIfCacheDeterminismTest, MemoRunMatchesVerifiedRunExactly) {
  // ctest pins MISO_VERIFY=1, under which every what-if probe bypasses
  // the memo's variant level. The shipped (verification-off) run goes
  // through it for every reorganization; both runs must agree byte for
  // byte.
  SimConfig config;
  config.variant = SystemVariant::kMsMiso;

  TracedReport verified;
  {
    verify::ScopedVerification on(true);
    verified = TracedRun(config, /*threads=*/2);
  }
  TracedReport shipped;
  {
    verify::ScopedVerification off(false);
    shipped = TracedRun(config, /*threads=*/2);
  }
  ASSERT_FALSE(shipped.trace.empty());
  ExpectByteIdentical(verified.report, shipped.report);
  EXPECT_EQ(ReportToJson(verified.report), ReportToJson(shipped.report));
  EXPECT_EQ(verified.trace, shipped.trace);
}

TEST(WhatIfCacheDeterminismTest,
     CachedRunIsByteIdenticalAcrossThreadCounts) {
  SimConfig config;
  config.variant = SystemVariant::kMsMiso;

  const TracedReport one = TracedRun(config, 1);
  ASSERT_FALSE(one.trace.empty());
  for (int threads : {2, 8}) {
    SCOPED_TRACE("MISO_THREADS=" + std::to_string(threads));
    const TracedReport many = TracedRun(config, threads);
    ExpectByteIdentical(one.report, many.report);
    EXPECT_EQ(one.trace, many.trace);
  }
}

}  // namespace
}  // namespace miso::sim
