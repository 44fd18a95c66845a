// Performance-model equations (Eqs. (1)-(6)) and sensitivity thresholds.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/perf_model.hpp"

namespace tahoe::core {
namespace {

constexpr std::uint64_t kInterval = 1000;

memsim::SampledCounts counts(std::uint64_t loads, std::uint64_t stores,
                             std::uint64_t with_access = 900,
                             std::uint64_t total = 1000) {
  memsim::SampledCounts c;
  c.loads = loads;
  c.stores = stores;
  c.samples_with_access = with_access;
  c.total_samples = total;
  return c;
}

/// Two-tier machine: DRAM (tier 0) over `nvm` (tier 1), one 6 GB/s copy
/// engine for both directions.
memsim::Machine two_tier(memsim::DeviceModel dram, memsim::DeviceModel nvm) {
  memsim::Machine m;
  m.devices = {std::move(dram), std::move(nvm)};
  m.copy_engine_bw = gbps(6.0);
  m.sample_interval = kInterval;
  return m;
}

PerfModel model(double bw_peak = 5e9, bool optane = false) {
  ModelConstants mc;
  mc.cf_bw = 1.0;
  mc.cf_lat = 1.0;
  mc.bw_peak_nvm = bw_peak;
  const memsim::DeviceModel dram = memsim::devices::dram(kGiB);
  const memsim::DeviceModel nvm =
      optane ? memsim::devices::optane_pm(kGiB)
             : memsim::devices::nvm_bw_fraction(dram, 0.5, kGiB);
  return PerfModel(mc, two_tier(dram, nvm));
}

// Promotions move (kNvm -> kDram), evictions (kDram -> kNvm).
using memsim::kDram;
using memsim::kNvm;

TEST(PerfModel, BandwidthEstimateEq1) {
  const PerfModel m = model();
  // 10k sampled accesses * 1000 interval * 64 B = 640 MB over 0.9 * 1 s.
  const double bw = m.bandwidth_estimate(counts(6000, 4000), 1.0);
  EXPECT_NEAR(bw, 10'000.0 * 1000.0 * 64.0 / 0.9, 1.0);
}

TEST(PerfModel, BandwidthEstimateDegenerateInputs) {
  const PerfModel m = model();
  EXPECT_DOUBLE_EQ(m.bandwidth_estimate(counts(100, 0), 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.bandwidth_estimate(counts(100, 0, 0, 1000), 1.0), 0.0);
}

TEST(PerfModel, ClassificationThresholds) {
  const PerfModel m = model(/*bw_peak=*/1e9);
  EXPECT_EQ(m.classify(0.9e9), Sensitivity::Bandwidth);   // >= 80%
  EXPECT_EQ(m.classify(0.8e9), Sensitivity::Bandwidth);
  EXPECT_EQ(m.classify(0.5e9), Sensitivity::Mixed);
  EXPECT_EQ(m.classify(0.05e9), Sensitivity::Latency);    // <= 10%
}

TEST(PerfModel, BenefitBwEq2MatchesClosedForm) {
  const PerfModel m = model();
  const memsim::SampledCounts c = counts(1000, 0);
  const double est = 1000.0 * 1000.0 * 64.0;  // bytes
  const double expected = est / m.constants().cf_bw / 5e9 - est / 10e9;
  // nvm read bw = 5 GB/s (half of DRAM's 10 GB/s); cf = 1.
  EXPECT_NEAR(m.benefit_bw(c, false, kNvm, kDram), expected, expected * 1e-9);
  // Loads only: distinguishing read/write changes nothing.
  EXPECT_NEAR(m.benefit_bw(c, true, kNvm, kDram),
              m.benefit_bw(c, false, kNvm, kDram), 1e-12);
}

TEST(PerfModel, ReadWriteDistinctionMattersOnAsymmetricNvm) {
  const PerfModel m = model(5e9, /*optane=*/true);
  const memsim::SampledCounts wr = counts(0, 1000);
  // Optane write bw (1.3 GB/s) << read bw (3.9 GB/s): Eq. (4) sees a much
  // larger benefit than Eq. (2), which charges writes at the read rate.
  EXPECT_GT(m.benefit_bw(wr, true, kNvm, kDram),
            2.0 * m.benefit_bw(wr, false, kNvm, kDram));
  // Latency: Optane writes are *faster* than reads (buffered), so the
  // distinction lowers the predicted benefit.
  EXPECT_LT(m.benefit_lat(wr, true, kNvm, kDram),
            m.benefit_lat(wr, false, kNvm, kDram));
}

TEST(PerfModel, BenefitLatEq3MatchesClosedForm) {
  const memsim::DeviceModel dram = memsim::devices::dram(kGiB);
  ModelConstants mc;
  mc.bw_peak_nvm = 5e9;
  const PerfModel m(
      mc, two_tier(dram, memsim::devices::nvm_lat_multiple(dram, 4.0, kGiB)));
  const memsim::SampledCounts c = counts(500, 0);
  const double est = 500.0 * 1000.0;
  const double expected = est * (4.0 - 1.0) * dram.read_lat_s;
  EXPECT_NEAR(m.benefit_lat(c, false, kNvm, kDram), expected, expected * 1e-9);
}

TEST(PerfModel, MixedTakesMaxOfBothModels) {
  const PerfModel m = model(/*bw_peak=*/1e9);
  // Mid-range bandwidth estimate -> Mixed -> max of the two benefits.
  const memsim::SampledCounts c = counts(700, 0, 900, 1000);
  const double b = m.benefit(c, 0.1, false, kNvm, kDram);
  EXPECT_NEAR(b,
              std::max(m.benefit_bw(c, false, kNvm, kDram),
                       m.benefit_lat(c, false, kNvm, kDram)),
              1e-12);
}

TEST(PerfModel, ZeroAccessesZeroBenefit) {
  const PerfModel m = model();
  EXPECT_DOUBLE_EQ(m.benefit(counts(0, 0), 1.0, true, kNvm, kDram), 0.0);
}

TEST(PerfModel, MovementCostEq6) {
  const PerfModel m = model();
  // Toward DRAM the copy is bottlenecked by the NVM read side (5 GB/s,
  // below the 6 GB/s engine): 5 GB take exactly 1 s.
  const std::uint64_t bytes = 5'000'000'000ULL;
  EXPECT_NEAR(m.copy_seconds(bytes, kNvm, kDram), 1.0, 1e-6);
  EXPECT_NEAR(m.movement_cost(bytes, 0.4, kNvm, kDram), 0.6, 1e-6);
  // Fully overlapped: zero cost, never negative.
  EXPECT_DOUBLE_EQ(m.movement_cost(bytes, 2.0, kNvm, kDram), 0.0);
}

TEST(PerfModel, CopyCostIsDirectionAwareOnAsymmetricNvm) {
  const PerfModel m = model(5e9, /*optane=*/true);
  const std::uint64_t bytes = 1'000'000'000ULL;
  // Toward NVM the Optane write bandwidth (1.3 GB/s) bottlenecks; toward
  // DRAM its read bandwidth (3.9 GB/s) does.
  EXPECT_GT(m.copy_seconds(bytes, kDram, kNvm),
            2.0 * m.copy_seconds(bytes, kNvm, kDram));
}

TEST(PerfModel, ConstantFactorsScaleBenefits) {
  ModelConstants mc;
  mc.cf_bw = 0.5;
  mc.cf_lat = 2.0;
  mc.bw_peak_nvm = 5e9;
  const memsim::DeviceModel dram = memsim::devices::dram(kGiB);
  const PerfModel m(
      mc, two_tier(dram, memsim::devices::nvm_bw_fraction(dram, 0.5, kGiB)));
  const PerfModel base = model();
  const memsim::SampledCounts c = counts(1000, 200);
  EXPECT_NEAR(m.benefit_bw(c, true, kNvm, kDram),
              0.5 * base.benefit_bw(c, true, kNvm, kDram), 1e-12);
  EXPECT_NEAR(m.benefit_lat(c, true, kNvm, kDram),
              2.0 * base.benefit_lat(c, true, kNvm, kDram), 1e-12);
}

TEST(PerfModel, ContractChecks) {
  ModelConstants mc;
  mc.t1 = 0.1;
  mc.t2 = 0.8;  // inverted
  const memsim::DeviceModel dram = memsim::devices::dram(kGiB);
  EXPECT_THROW(PerfModel(mc, two_tier(dram, dram)), ContractError);
  const PerfModel unpeaked = [] {
    ModelConstants c;
    c.bw_peak_nvm = 0.0;
    return PerfModel(c, two_tier(memsim::devices::dram(kGiB),
                                 memsim::devices::dram(kGiB)));
  }();
  EXPECT_THROW(unpeaked.classify(1e9), ContractError);
}

}  // namespace
}  // namespace tahoe::core
