// directory.hpp — the DIF's name-to-address mapping.
//
// Applications register by AppName; flow allocation resolves the name to
// the address of the member IPC process the application sits on. This is
// the only place names meet addresses, and it lives entirely inside the
// DIF: nothing here is visible to applications or to other DIFs.
//
// Entries stay in an ordered map (snapshots and digests iterate it in a
// deterministic order); an address-keyed reverse index makes departure
// cleanup — remove_at(addr) on every member death/mobility event — cost
// O(registrations at that address) instead of a full scan.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "naming/names.hpp"

namespace rina::naming {

class Directory {
 public:
  void add(const AppName& app, Address at) {
    auto [it, inserted] = entries_.emplace(app, at);
    if (!inserted) {
      if (it->second == at) return;
      reverse_erase(it->second, app);
      it->second = at;
    }
    reverse_[at.key()].push_back(app);
  }

  void remove(const AppName& app) {
    auto it = entries_.find(app);
    if (it == entries_.end()) return;
    reverse_erase(it->second, app);
    entries_.erase(it);
  }

  /// Drop every registration pointing at `at` (a departed member).
  void remove_at(Address at) {
    auto rit = reverse_.find(at.key());
    if (rit == reverse_.end()) return;
    for (const AppName& app : rit->second) entries_.erase(app);
    reverse_.erase(rit);
  }

  [[nodiscard]] std::optional<Address> lookup(const AppName& app) const {
    auto it = entries_.find(app);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::map<AppName, Address>& entries() const {
    return entries_;
  }

 private:
  void reverse_erase(Address at, const AppName& app) {
    auto rit = reverse_.find(at.key());
    if (rit == reverse_.end()) return;
    auto& v = rit->second;
    v.erase(std::remove(v.begin(), v.end(), app), v.end());
    if (v.empty()) reverse_.erase(rit);
  }

  std::map<AppName, Address> entries_;
  std::unordered_map<std::uint32_t, std::vector<AppName>> reverse_;
};

}  // namespace rina::naming
