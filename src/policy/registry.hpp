// Name-keyed registry of energy-management policies.
//
// The registry is the single place scenarios, CLIs, tests, and the tournament
// harness resolve policy names.  The global() instance comes pre-loaded with
// the built-in zoo (policy/builtin.cpp); experiments may register additional
// policies at startup.  Lookups are read-only and thread-safe after
// registration; registration itself is not thread-safe (do it before
// spawning workers, as main() and static initializers do).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "policy/energy_policy.hpp"

namespace hemp {

class PolicyRegistry {
 public:
  PolicyRegistry() = default;

  PolicyRegistry(const PolicyRegistry&) = delete;
  PolicyRegistry& operator=(const PolicyRegistry&) = delete;

  /// Process-wide registry with every built-in policy pre-registered.
  static PolicyRegistry& global();

  /// Register a policy under policy->name().  Throws ModelError on a
  /// duplicate name — shadowing an existing policy silently would make
  /// scenario files mean different things in different builds.
  void add(std::unique_ptr<EnergyPolicy> policy);

  /// Resolve `name` or throw ModelError whose message lists every registered
  /// name (scenario typos should tell the user what *is* available).
  [[nodiscard]] const EnergyPolicy& at(const std::string& name) const;

  /// Resolve `name` or nullptr (no throw).
  [[nodiscard]] const EnergyPolicy* find(const std::string& name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return policies_.size(); }

  /// Sorted "a, b, c" rendering of names() (error messages, --help).
  [[nodiscard]] std::string names_joined() const;

 private:
  std::map<std::string, std::unique_ptr<EnergyPolicy>> policies_;
};

/// An EnergyManager-backed policy: a ManagedPolicyController per node, built
/// from `params` (every built-in managed policy is one); `fast_path` opts its
/// nodes into the single-node fast path.
[[nodiscard]] std::unique_ptr<EnergyPolicy> make_managed_policy(
    std::string name, std::string description, const EnergyManagerParams& params,
    bool fast_path);

/// Register the built-in policy zoo into `registry` (idempotent only in the
/// sense that global() calls it exactly once; adding twice throws).
void register_builtin_policies(PolicyRegistry& registry);

}  // namespace hemp
