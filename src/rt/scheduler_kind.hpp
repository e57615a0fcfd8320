// Scheduler selection shared by the workload harness, the cluster layer,
// the CLI and the benches. String parsing lives here — one place — so an
// unknown name is an error everywhere instead of a silent default.
#pragma once

#include <optional>
#include <string>

#include "common/enum_names.hpp"

namespace sgprs::rt {

enum class SchedulerKind { kSgprs, kNaive };

inline constexpr common::EnumName<SchedulerKind> kSchedulerKindNames[] = {
    {SchedulerKind::kSgprs, "sgprs"}, {SchedulerKind::kNaive, "naive"}};

const char* to_string(SchedulerKind k);

/// All accepted names, pipe-separated (for --help text).
std::string scheduler_kind_names();

/// Parses a scheduler name; std::nullopt on anything unrecognised.
std::optional<SchedulerKind> parse_scheduler_kind(const std::string& name);

}  // namespace sgprs::rt
