// Golden-trace determinism regression: the whole Monte-Carlo layer rests on
// run_spec being a pure function of its spec, including across threads. A
// full-precision digest of every metric a run produces must (1) hash to a
// pinned literal for paper_scenario1, (2) be bit-identical across repeated
// serial runs and (3) when the same run executes inside a 4-worker thread
// pool next to concurrent replicas. If threading (or a stray global) ever
// perturbs simulation state, this fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "result_digest.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"

namespace sgprs::workload {
namespace {

using golden::digest;

std::string paper_scenario1_path() {
  return std::string(SGPRS_SOURCE_DIR) + "/scenarios/paper_scenario1.json";
}

/// FNV-1a-64 of a digest string.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GoldenTraceDeterminism, PaperScenario1MatchesPinnedDigest) {
  // A literal golden value, not a second code path: any change to what
  // paper_scenario1 computes — task building, scheduling, executor timing,
  // metrics — moves this hash. Update it only for an intended change of
  // simulated behaviour, and say so in the change log. Engine event counts
  // are work, not behaviour: PaperScenario1EventCount pins them apart.
  constexpr std::uint64_t kPaperScenario1Fnv = 0x84bc38d3a53a3638ULL;
  const std::string d = digest(run_spec(load_scenario_spec(
      paper_scenario1_path())));
  EXPECT_EQ(fnv1a64(d), kPaperScenario1Fnv) << "full digest: " << d;
}

TEST(GoldenTraceDeterminism, PaperScenario1EventCount) {
  // The engine events paper_scenario1 fires. It falls when the executor
  // fires fewer events for the same behaviour (docs/ARCHITECTURE.md
  // § "Contended chains"); update it only for such a change, and say so in
  // the change log.
  constexpr std::size_t kPaperScenario1Events = 7497;
  const SpecResult r = run_spec(load_scenario_spec(paper_scenario1_path()));
  EXPECT_EQ(r.single.sim_events, kPaperScenario1Events);
}

TEST(GoldenTraceDeterminism, PaperScenario1SerialRerunsAreBitIdentical) {
  const auto spec = load_scenario_spec(paper_scenario1_path());
  const std::string first = digest(run_spec(spec));
  const std::string second = digest(run_spec(spec));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("releases="), std::string::npos);
}

TEST(GoldenTraceDeterminism, FourWorkerPoolMatchesSerialBitForBit) {
  const auto spec = load_scenario_spec(paper_scenario1_path());
  const std::string serial = digest(run_spec(spec));

  // Eight concurrent copies of the same run on four workers: every one
  // must land on the serial digest even while racing the others for CPU.
  common::ThreadPool pool(4);
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&spec] { return digest(run_spec(spec)); }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), serial);
}

TEST(GoldenTraceDeterminism, MixedSpecsInterleavedStayIndependent) {
  // Different specs sharing a pool must not contaminate each other: run
  // scenario1 concurrently with a fleet spec and a generator spec, then
  // verify scenario1's digest still matches its isolated serial run.
  const auto s1 = load_scenario_spec(paper_scenario1_path());
  const auto fleet = load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                        "/scenarios/heterogeneous_fleet.json");
  const auto gen = load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                      "/scenarios/uunifast_capacity.json");
  const std::string serial1 = digest(run_spec(s1));
  const std::string serial_fleet = digest(run_spec(fleet));
  const std::string serial_gen = digest(run_spec(gen));

  common::ThreadPool pool(4);
  auto f1 = pool.submit([&] { return digest(run_spec(s1)); });
  auto f2 = pool.submit([&] { return digest(run_spec(fleet)); });
  auto f3 = pool.submit([&] { return digest(run_spec(gen)); });
  auto f4 = pool.submit([&] { return digest(run_spec(s1)); });
  EXPECT_EQ(f1.get(), serial1);
  EXPECT_EQ(f2.get(), serial_fleet);
  EXPECT_EQ(f3.get(), serial_gen);
  EXPECT_EQ(f4.get(), serial1);
}

}  // namespace
}  // namespace sgprs::workload
