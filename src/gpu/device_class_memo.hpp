// Device-class memos: what gpu::Executor memoises, shared by every executor
// of one device class.
//
// An executor memoises three things: the grant a lone kernel of each op
// class gets on each (context, priority), the solo steps of each program
// per solo class, and the grants of each contended running set. Every one
// of them is a pure function of the same inputs: the device's SM count,
// the speedup model, the sharing parameters, the context SM limits and
// each stream's (context, priority). Together these are the device class.
// SGPRS builds every context pool once, offline, so every device of one
// spec in a fleet is of one class. cluster::Cluster keeps a record per
// distinct spec (a device type), whose pool layout gives the class
// (ContextPool::device_class), and one memo per (shard, type), found by
// the device's type index; every executor of the type is built from it
// (Executor(engine, memo)) and so is of its class by construction. An
// executor built outside a cluster owns a memo of its own. Only the thread
// running a shard touches that shard's memos, so they need no locking.
// docs/ARCHITECTURE.md § "Contended shares" is the design note.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"

namespace sgprs::gpu {

using ContextId = int;
using StreamId = int;

enum class StreamPriority : std::uint8_t { kHigh = 0, kLow = 1 };

/// The inputs every memo entry is a function of.
struct DeviceClass {
  struct Stream {
    ContextId ctx = 0;
    StreamPriority priority = StreamPriority::kHigh;
    bool operator==(const Stream&) const = default;
  };

  int total_sms = 0;
  SpeedupModel speedup;
  SharingParams sharing;
  std::vector<int> context_sms;  // as compute_shares takes them
  std::vector<Stream> streams;   // indexed by StreamId

  bool operator==(const DeviceClass&) const = default;
};

/// The memo tables of one device class. It records its class, and an
/// executor built from it takes its contexts and streams from that class,
/// so an entry never answers for another device. The lookups are
/// Executor's.
class DeviceClassMemo {
 public:
  explicit DeviceClassMemo(DeviceClass cls) : cls_(std::move(cls)) {}

  DeviceClassMemo(const DeviceClassMemo&) = delete;
  DeviceClassMemo& operator=(const DeviceClassMemo&) = delete;

  const DeviceClass& device_class() const { return cls_; }

  /// Distinct running sets whose contended grants are memoised.
  std::size_t share_sets() const {
    const std::size_t width = cls_.streams.size();
    return width == 0 ? 0 : share_keys_.size() / width;
  }
  /// Solo steps memoised, over every program and solo class.
  std::size_t solo_step_count() const { return solo_steps_.size(); }

 private:
  friend class Executor;

  // One kernel run alone from a cold start in a given solo class:
  // its duration, the nanoseconds from its start to its program's end, and
  // what its retirement adds to the executor's work done (work phase, then
  // the residue below the finished-work epsilon) and busy-SM integral.
  struct SoloStep {
    std::int64_t ns = 0;
    std::int64_t tail_ns = 0;
    double work = 0.0;
    double residue = 0.0;
    double busy = 0.0;
  };

  // A solo-step memo row: `program`'s steps in one solo class start at
  // solo_steps_[first].
  struct SoloRow {
    std::uint64_t program = 0;
    std::uint32_t solo_class = 0;
    std::uint32_t first = 0;
  };

  // Empties the share memo, keeping its storage.
  void clear_shares() {
    share_keys_.clear();
    share_grants_.clear();
    std::fill(share_slots_.begin(), share_slots_.end(), 0);
  }

  DeviceClass cls_;

  // Executor::solo_grant's memo, indexed by (context, priority, op); a zero
  // rate marks an entry not computed yet. Grown only as contexts run solo.
  std::vector<ShareGrant> solo_grants_;

  // Executor::contended_grants' memo. A key is one byte per stream: its
  // running op class + 1, or 0 for an idle stream. Entry i's key and its
  // grants, indexed by stream (an idle stream's left zero), start at
  // i * streams in share_keys_ and share_grants_. share_slots_ is an
  // open-addressing index (entry + 1, 0 = empty).
  std::vector<std::uint8_t> share_keys_;
  std::vector<ShareGrant> share_grants_;
  std::vector<std::uint32_t> share_slots_;

  // Executor::solo_steps' memo, allocated at the first solo chain: rows,
  // their steps, and an open-addressing index over the rows (row + 1,
  // 0 = empty).
  std::vector<SoloRow> solo_rows_;
  std::vector<SoloStep> solo_steps_;
  std::vector<std::uint32_t> solo_slots_;
};

}  // namespace sgprs::gpu
