// test_addr_map — naming::AddrMap, the dense address-keyed container the
// control plane keeps its per-member state in: iteration order must equal
// std::map's (Dijkstra tie-breaks and snapshots depend on it), references
// must survive inserts, and sparse maps must stay small.
#include "naming/addr_map.hpp"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "test_util.hpp"

using namespace rina;
using naming::Address;
using naming::AddrMap;

namespace {

/// Same keys, same values, same order.
template <typename T>
bool same_as(const AddrMap<T>& m, const std::map<Address, T>& ref) {
  if (m.size() != ref.size()) return false;
  auto rit = ref.begin();
  for (const auto& [a, v] : m) {
    if (rit == ref.end() || rit->first != a || rit->second != v) return false;
    ++rit;
  }
  return rit == ref.end();
}

void order_matches_std_map() {
  // Addresses over several regions, with the wildcard {r,0} and the top
  // node id {r,65535} in each, inserted in a seeded shuffled order.
  std::vector<Address> keys;
  for (std::uint16_t r : {0, 1, 2, 7, 300, 65535}) {
    keys.push_back(Address{r, 0});
    keys.push_back(Address{r, 65535});
    for (std::uint16_t n : {1, 2, 15, 16, 17, 31, 32, 100, 1000, 40000})
      keys.push_back(Address{r, n});
  }
  std::mt19937 rng(12345);
  std::shuffle(keys.begin(), keys.end(), rng);

  AddrMap<int> m;
  std::map<Address, int> ref;
  int v = 0;
  for (Address a : keys) {
    m[a] = v;
    ref[a] = v;
    ++v;
  }
  CHECK(same_as(m, ref));
  CHECK(m.begin()->first == (Address{0, 0}));

  // Erase half in another shuffled order; order must still match.
  std::shuffle(keys.begin(), keys.end(), rng);
  for (std::size_t i = 0; i < keys.size() / 2; ++i) {
    CHECK(m.erase(keys[i]) == 1);
    ref.erase(keys[i]);
  }
  CHECK(same_as(m, ref));

  // Random churn against the reference.
  std::uniform_int_distribution<int> region(0, 5), node(0, 70);
  for (int i = 0; i < 5000; ++i) {
    Address a{static_cast<std::uint16_t>(region(rng)),
              static_cast<std::uint16_t>(node(rng))};
    if (rng() % 3 == 0) {
      CHECK(m.erase(a) == ref.erase(a));
    } else {
      m[a] += i;
      ref[a] += i;
    }
  }
  CHECK(same_as(m, ref));
}

void references_survive_inserts() {
  AddrMap<std::string> m;
  std::string& first = m[Address{1, 1}];
  first = "one";
  const std::string* addr_of_first = &first;
  for (std::uint16_t r = 1; r <= 40; ++r)
    for (std::uint16_t n = 0; n < 200; n += 3) m[Address{r, n}] += "x";
  CHECK(&m.at(Address{1, 1}) == addr_of_first);
  CHECK(first == "one");

  // try_emplace never overwrites and reports which happened.
  auto [it, inserted] = m.try_emplace(Address{1, 1}, "other");
  CHECK(!inserted);
  CHECK(it->second == "one");
  auto [it2, inserted2] = m.try_emplace(Address{9, 9999}, "new");
  CHECK(inserted2);
  CHECK(it2->first == (Address{9, 9999}));
  CHECK(&m.at(Address{1, 1}) == addr_of_first);

  // Erasing other entries (freeing their pages) leaves it in place too.
  for (std::uint16_t n = 0; n < 200; n += 3) m.erase(Address{2, n});
  CHECK(&m.at(Address{1, 1}) == addr_of_first);
}

void find_erase_clear_size() {
  AddrMap<int> m;
  CHECK(m.empty());
  CHECK(m.begin() == m.end());
  CHECK(m.find(Address{1, 1}) == m.end());
  CHECK(m.count(Address{1, 1}) == 0);
  CHECK(m.erase(Address{1, 1}) == 0);
  bool threw = false;
  try {
    (void)m.at(Address{1, 1});
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);

  m[Address{1, 2}] = 12;
  m[Address{1, 1}] = 11;
  m[Address{2, 0}] = 20;
  CHECK(m.size() == 3);
  CHECK(m.count(Address{1, 2}) == 1);
  CHECK(m.find(Address{1, 2})->second == 12);
  CHECK(m.find(Address{1, 3}) == m.end());
  CHECK(m.find(Address{3, 2}) == m.end());  // region never seen

  // erase(iterator) returns the next entry in order.
  auto next = m.erase(m.find(Address{1, 1}));
  CHECK(next != m.end());
  CHECK(next->first == (Address{1, 2}));
  CHECK(m.size() == 2);
  next = m.erase(m.find(Address{2, 0}));
  CHECK(next == m.end());
  CHECK(m.size() == 1);

  // Copies are deep; moves leave the source empty-usable.
  AddrMap<int> copy = m;
  copy[Address{1, 2}] = 99;
  CHECK(m.at(Address{1, 2}) == 12);
  AddrMap<int> moved = std::move(copy);
  CHECK(moved.at(Address{1, 2}) == 99);
  CHECK(copy.empty());  // a moved-from map is empty and reusable
  CHECK(copy.begin() == copy.end());
  copy[Address{5, 5}] = 55;
  CHECK(copy.size() == 1);
  moved = std::move(copy);
  CHECK(moved.size() == 1);
  CHECK(moved.at(Address{5, 5}) == 55);
  CHECK(copy.empty());

  m.clear();
  CHECK(m.empty());
  CHECK(m.size() == 0);
  CHECK(m.page_count() == 0);
  CHECK(m.begin() == m.end());
  m[Address{4, 4}] = 44;  // usable after clear
  CHECK(m.size() == 1);
  CHECK(m.at(Address{4, 4}) == 44);
}

void sparse_map_is_one_page() {
  AddrMap<std::uint64_t> m;
  m[Address{3, 65535}] = 1;
  CHECK(m.page_count() == 1);
  CHECK(m.size() == 1);
  m[Address{3, 65534}] = 2;  // same 16-slot page
  CHECK(m.page_count() == 1);
  m[Address{3, 0}] = 3;  // the wildcard lives in page 0
  CHECK(m.page_count() == 2);
  m.erase(Address{3, 0});
  CHECK(m.page_count() == 1);  // an emptied page is freed

  // A dense thousand-member DIF: one page per 16 node ids.
  AddrMap<int> dense;
  for (std::uint16_t n = 0; n < 1024; ++n) dense[Address{1, n}] = n;
  CHECK(dense.page_count() == 64);
}

}  // namespace

int main() {
  order_matches_std_map();
  references_survive_inserts();
  find_erase_clear_size();
  sparse_map_is_one_page();
  return TEST_MAIN_RESULT();
}
