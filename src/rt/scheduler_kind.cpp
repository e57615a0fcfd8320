#include "rt/scheduler_kind.hpp"

namespace sgprs::rt {

const char* to_string(SchedulerKind k) {
  return common::name_of(kSchedulerKindNames, k);
}

std::string scheduler_kind_names() {
  return common::names_of(kSchedulerKindNames);
}

std::optional<SchedulerKind> parse_scheduler_kind(const std::string& name) {
  return common::parse_name(kSchedulerKindNames, name);
}

}  // namespace sgprs::rt
