// Arrival processes under the unimodal arbitrary model, workload builders,
// and the FC adapter.
#include <gtest/gtest.h>

#include "traffic/arrival.hpp"
#include "traffic/arrival_stream.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::traffic {
namespace {

MessageClass sample_class() {
  MessageClass cls;
  cls.id = 0;
  cls.name = "sample";
  cls.source = 0;
  cls.l_bits = 8000;
  cls.d = Duration::milliseconds(5);
  cls.a = 3;
  cls.w = Duration::milliseconds(10);
  return cls;
}

class ArrivalKinds : public ::testing::TestWithParam<ArrivalKind> {};

TEST_P(ArrivalKinds, RespectsDensityBoundAndHorizon) {
  const MessageClass cls = sample_class();
  util::Rng rng(2026);
  const SimTime horizon = SimTime::from_ns(500'000'000);  // 500 ms
  const auto times = generate_arrivals(cls, GetParam(), horizon, rng);
  ASSERT_FALSE(times.empty());
  EXPECT_TRUE(respects_density(times, cls.a, cls.w));
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_LT(times.back(), horizon);
  EXPECT_GE(times.front(), SimTime::zero());
}

TEST_P(ArrivalKinds, DeterministicPerSeed) {
  const MessageClass cls = sample_class();
  const SimTime horizon = SimTime::from_ns(100'000'000);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  EXPECT_EQ(generate_arrivals(cls, GetParam(), horizon, rng_a),
            generate_arrivals(cls, GetParam(), horizon, rng_b));
}

TEST_P(ArrivalKinds, WorkloadStreamMatchesGenerateTraffic) {
  // The streamed per-source view yields exactly generate_traffic()'s
  // messages, field for field and in the same order.
  const SimTime horizon = SimTime::from_ns(60'000'000);
  for (const Workload& wl : {stock_exchange(4), videoconference(3)}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      SCOPED_TRACE(wl.name + ", seed " + std::to_string(seed));
      const GeneratedTraffic want =
          generate_traffic(wl, GetParam(), horizon, seed);
      WorkloadStream stream(wl, GetParam(), horizon, seed);
      EXPECT_EQ(stream.total_messages(), want.total_messages);
      ASSERT_EQ(stream.num_sources(), wl.z());
      for (int s = 0; s < stream.num_sources(); ++s) {
        SourceStream& source = stream.source(s);
        for (const Message& msg :
             want.per_source[static_cast<std::size_t>(s)]) {
          ASSERT_FALSE(source.done()) << "source " << s;
          const Message got = source.take();
          EXPECT_EQ(got.uid, msg.uid);
          EXPECT_EQ(got.class_id, msg.class_id);
          EXPECT_EQ(got.source, msg.source);
          EXPECT_EQ(got.l_bits, msg.l_bits);
          EXPECT_EQ(got.arrival, msg.arrival);
          EXPECT_EQ(got.absolute_deadline, msg.absolute_deadline);
        }
        EXPECT_TRUE(source.done()) << "source " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ArrivalKinds,
    ::testing::Values(ArrivalKind::kSaturatingAdversary,
                      ArrivalKind::kPeriodicJitter, ArrivalKind::kSporadic,
                      ArrivalKind::kBoundedPoisson),
    [](const ::testing::TestParamInfo<ArrivalKind>& info) {
      switch (info.param) {
        case ArrivalKind::kSaturatingAdversary: return std::string("Saturating");
        case ArrivalKind::kPeriodicJitter: return std::string("Periodic");
        case ArrivalKind::kSporadic: return std::string("Sporadic");
        case ArrivalKind::kBoundedPoisson: return std::string("Poisson");
      }
      return std::string("Unknown");
    });

TEST(SaturatingAdversary, AchievesTheDensityBoundExactly) {
  // The peak-load generator must realise a arrivals per window — that is
  // the extreme point the FCs are computed against.
  const MessageClass cls = sample_class();
  util::Rng rng(1);
  const SimTime horizon = SimTime::from_ns(100'000'000);  // 10 windows
  const auto times = generate_arrivals(
      cls, ArrivalKind::kSaturatingAdversary, horizon, rng);
  EXPECT_EQ(times.size(), 30u);  // 3 per 10 ms window over 100 ms
  // Windows are saturated: times[i+a] - times[i] == w exactly for burst
  // heads.
  EXPECT_EQ((times[3] - times[0]).ns(), cls.w.ns());
}

TEST(RespectsDensity, DetectsViolations) {
  std::vector<SimTime> times = {SimTime::from_ns(0), SimTime::from_ns(1),
                                SimTime::from_ns(2), SimTime::from_ns(3)};
  EXPECT_FALSE(respects_density(times, 3, Duration::nanoseconds(10)));
  EXPECT_TRUE(respects_density(times, 4, Duration::nanoseconds(10)));
  EXPECT_TRUE(respects_density({}, 1, Duration::nanoseconds(10)));
}

TEST(Materialize, AssignsUidsAndDeadlines) {
  const MessageClass cls = sample_class();
  std::int64_t next_uid = 100;
  const std::vector<SimTime> times = {SimTime::from_ns(10),
                                      SimTime::from_ns(20)};
  const auto messages = materialize(cls, times, next_uid);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(next_uid, 102);
  EXPECT_EQ(messages[0].uid, 100);
  EXPECT_EQ(messages[1].uid, 101);
  EXPECT_EQ(messages[0].absolute_deadline.ns(), 10 + cls.d.ns());
  EXPECT_EQ(messages[1].class_id, cls.id);
  EXPECT_EQ(messages[1].source, cls.source);
}

TEST(Workload, BuildersProduceValidWorkloads) {
  for (const Workload& wl :
       {quickstart(4), videoconference(6), air_traffic_control(3),
        stock_exchange(5)}) {
    wl.validate();
    EXPECT_GE(wl.z(), 3);
    EXPECT_FALSE(wl.all_classes().empty());
    EXPECT_GT(wl.offered_load_bits_per_second(), 0.0);
  }
}

TEST(Workload, ScaledLoadScalesOfferedLoad) {
  const Workload base = quickstart(4);
  const Workload heavier = base.scaled_load(2.0);
  EXPECT_NEAR(heavier.offered_load_bits_per_second(),
              2.0 * base.offered_load_bits_per_second(),
              base.offered_load_bits_per_second() * 0.01);
}

TEST(Workload, GenerateTrafficCoversAllSourcesSorted) {
  const Workload wl = videoconference(4);
  const auto traffic = generate_traffic(
      wl, ArrivalKind::kPeriodicJitter, SimTime::from_ns(200'000'000), 5);
  ASSERT_EQ(traffic.per_source.size(), 4u);
  std::int64_t total = 0;
  std::set<std::int64_t> uids;
  for (const auto& msgs : traffic.per_source) {
    EXPECT_FALSE(msgs.empty());
    total += static_cast<std::int64_t>(msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_TRUE(uids.insert(msgs[i].uid).second) << "duplicate uid";
      if (i > 0) {
        EXPECT_LE(msgs[i - 1].arrival, msgs[i].arrival);
      }
    }
  }
  EXPECT_EQ(total, traffic.total_messages);
}

TEST(Workload, ValidateRejectsBadMappings) {
  Workload wl = quickstart(2);
  wl.sources[1].classes[0].source = 0;  // mapped to the wrong source
  EXPECT_THROW(wl.validate(), util::ContractViolation);

  Workload dup = quickstart(2);
  dup.sources[1].classes[0].id = dup.sources[0].classes[0].id;
  EXPECT_THROW(dup.validate(), util::ContractViolation);

  // Two sources sharing an id (their classes follow the id, so only the
  // duplicate check can object).
  Workload dup_source = quickstart(3);
  dup_source.sources[2].id = 0;
  for (auto& cls : dup_source.sources[2].classes) {
    cls.source = 0;
  }
  EXPECT_THROW(dup_source.validate(), util::ContractViolation);

  // One class id on two different sources, neither of them the first.
  Workload shared_class = quickstart(3);
  shared_class.sources[2].classes[1].id =
      shared_class.sources[1].classes[0].id;
  EXPECT_THROW(shared_class.validate(), util::ContractViolation);
}

TEST(FcAdapter, RoundTripsClassesAndUnits) {
  const Workload wl = quickstart(3);
  FcAdapterOptions options;
  options.psi_bps = 1e9;
  options.slot_s = 4.096e-6;
  options.overhead_bits = 160;
  options.trees = analysis::FcTreeParams{4, 64, 4, 64};
  const analysis::FcSystem system = to_fc_system(wl, options);
  system.validate();
  ASSERT_EQ(system.sources.size(), 3u);
  ASSERT_EQ(system.sources[0].classes.size(), 2u);
  const auto& cls = system.sources[0].classes[0];
  const auto& orig = wl.sources[0].classes[0];
  EXPECT_EQ(cls.l_bits, orig.l_bits);
  EXPECT_NEAR(cls.d_s, orig.d.to_seconds(), 1e-15);
  EXPECT_NEAR(cls.w_s, orig.w.to_seconds(), 1e-15);
  EXPECT_EQ(cls.a, orig.a);
  // One default static index per source.
  EXPECT_EQ(system.sources[0].nu, 1);
}

TEST(FcAdapter, CustomNuVector) {
  const Workload wl = quickstart(2);
  FcAdapterOptions options;
  options.trees = analysis::FcTreeParams{4, 64, 4, 64};
  options.nu = {4, 2};
  const analysis::FcSystem system = to_fc_system(wl, options);
  EXPECT_EQ(system.sources[0].nu, 4);
  EXPECT_EQ(system.sources[1].nu, 2);
  options.nu = {1};
  EXPECT_THROW(to_fc_system(wl, options), util::ContractViolation);
}

}  // namespace
}  // namespace hrtdm::traffic
