// Property tests for the sharding layer (cluster::shard_of) over ~200
// seeded random fleets:
//  (a) the partition is total and disjoint — every device index lands in
//      exactly one shard, every shard id is in range;
//  (b) the partition is a pure function of (device index, shard count) —
//      in particular independent of the order devices are created or
//      streams admitted;
//  (c) cross-shard handoff through an engine's staging buffer preserves
//      per-stream event order (the MinHeap::merge_from ingestion path the
//      epoch barriers rely on);
//  (d) the two-key splitmix64 stream_seed never collides across
//      (stream, shard) pairs, and the one-key stream_seed never collides
//      across stream ids for one base seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace sgprs::fleet {
namespace {

using cluster::shard_of;

constexpr int kTrials = 200;

TEST(ShardPartitionTest, EveryDeviceInExactlyOneShard) {
  common::Rng rng(0x5eed5eedULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int shards = static_cast<int>(rng.uniform_int(1, 16));
    const int devices = static_cast<int>(rng.uniform_int(1, 500));
    std::vector<std::vector<int>> members(shards);
    for (int d = 0; d < devices; ++d) {
      const int s = shard_of(d, shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      members[s].push_back(d);
    }
    int total = 0;
    for (const auto& m : members) total += static_cast<int>(m.size());
    EXPECT_EQ(total, devices);  // disjoint by construction, total checked
    // Contiguity of load: shard sizes differ by at most one (round-robin).
    std::size_t lo = devices, hi = 0;
    for (const auto& m : members) {
      lo = std::min(lo, m.size());
      hi = std::max(hi, m.size());
    }
    EXPECT_LE(hi - lo, 1u);
  }
}

TEST(ShardPartitionTest, PartitionIndependentOfAdmissionOrder) {
  common::Rng rng(0xfeedULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int shards = static_cast<int>(rng.uniform_int(1, 12));
    const int devices = static_cast<int>(rng.uniform_int(1, 200));
    // Assign in index order, then in a shuffled "admission" order: the
    // map must not depend on when a device (or its streams) showed up.
    std::map<int, int> in_order;
    for (int d = 0; d < devices; ++d) in_order[d] = shard_of(d, shards);
    std::vector<int> order(devices);
    for (int d = 0; d < devices; ++d) order[d] = d;
    for (int i = devices - 1; i > 0; --i) {
      std::swap(order[i],
                order[static_cast<int>(rng.uniform_int(0, i))]);
    }
    std::map<int, int> shuffled;
    for (int d : order) shuffled[d] = shard_of(d, shards);
    EXPECT_EQ(in_order, shuffled);
  }
}

TEST(ShardPartitionTest, HandoffPreservesPerStreamEventOrder) {
  // Model one epoch-barrier handoff per trial: a control plane staging
  // batches of per-stream events onto a paused shard engine between
  // run_until segments. Within a stream, events are staged in increasing
  // (time, sequence) order — exactly what Runner release chains produce —
  // and must fire in that order after MinHeap::merge_from ingests each
  // batch.
  common::Rng rng(0xcafeULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::Engine engine;
    const int streams = static_cast<int>(rng.uniform_int(1, 8));
    const int epochs = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<std::vector<int>> fired(streams);
    std::vector<int> next_seq(streams, 0);
    common::SimTime barrier = common::SimTime::zero();
    for (int e = 0; e < epochs; ++e) {
      const common::SimTime next_barrier =
          barrier + common::SimTime::from_ms(rng.uniform(1.0, 10.0));
      // Stage a batch: for each stream, a run of events inside the epoch
      // window (some at identical instants, exercising the FIFO
      // tie-break across the merge).
      for (int s = 0; s < streams; ++s) {
        const int burst = static_cast<int>(rng.uniform_int(0, 5));
        common::SimTime t = barrier;
        for (int k = 0; k < burst; ++k) {
          if (rng.next_double() < 0.5) {
            t = t + common::SimTime::from_ns(static_cast<std::int64_t>(
                        rng.uniform(0.0, 1e6)));
          }
          const common::SimTime at =
              t < next_barrier ? t : next_barrier;
          const int seq = next_seq[s]++;
          engine.schedule_at(at, [&fired, s, seq] {
            fired[s].push_back(seq);
          });
        }
      }
      engine.run_until(next_barrier);
      barrier = next_barrier;
    }
    for (int s = 0; s < streams; ++s) {
      ASSERT_EQ(fired[s].size(), static_cast<std::size_t>(next_seq[s]));
      EXPECT_TRUE(std::is_sorted(fired[s].begin(), fired[s].end()))
          << "stream " << s << " events reordered across the handoff";
    }
  }
}

TEST(ShardPartitionTest, StreamSeedsNeverCollideAcrossStreams) {
  common::Rng rng(0xd1ce'd1ceULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t base = rng.next_u64();
    std::set<std::uint64_t> seen;
    for (int stream = 0; stream < 512; ++stream) {
      EXPECT_TRUE(seen.insert(common::stream_seed(base, stream)).second)
          << "base " << base << " stream " << stream;
    }
  }
}

TEST(ShardPartitionTest, ShardStreamSeedsNeverCollideAcrossShardAndStream) {
  common::Rng rng(0xacc01adeULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t base = rng.next_u64();
    std::set<std::uint64_t> seen;
    for (int shard = 0; shard < 16; ++shard) {
      for (int stream = 0; stream < 64; ++stream) {
        EXPECT_TRUE(
            seen.insert(common::stream_seed(base, stream, shard)).second)
            << "base " << base << " shard " << shard << " stream "
            << stream;
      }
    }
  }
}

}  // namespace
}  // namespace sgprs::fleet
