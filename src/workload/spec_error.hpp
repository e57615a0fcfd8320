// SpecError: the semantic error type of every declarative-spec parser
// (scenario, experiment, fleet timeline / policy). Lives in its own header
// so lower layers (src/fleet/) can throw it without pulling in the full
// workload::ScenarioSpec surface.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sgprs::workload {

/// Semantic spec error (unknown field, bad value, missing section). The
/// message names the offending field path, e.g. "tasks[2].fps: must be > 0".
/// When constructed with an explicit path, path() exposes it structurally so
/// report writers (suite CSV/JSON error rows) can emit a field_path column
/// instead of making consumers re-parse the message.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& msg) : std::runtime_error(msg) {}
  SpecError(const std::string& path, const std::string& msg)
      : std::runtime_error(path + ": " + msg), path_(path) {}

  /// Offending field path ("spec.tasks[2].fps"); empty when the error is
  /// not tied to a single field.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A seed read from a signed input (a spec's JSON integer, a --seed flag).
/// A negative one would silently wrap to a huge uint64, so it is an error
/// naming `path` instead.
inline std::uint64_t checked_seed(std::int64_t n, const std::string& path) {
  if (n < 0) throw SpecError(path, "seed must be >= 0");
  return static_cast<std::uint64_t>(n);
}

}  // namespace sgprs::workload
