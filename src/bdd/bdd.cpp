#include "bdd/bdd.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "exec/fi.hpp"

namespace hlp::bdd {

namespace {
constexpr std::uint32_t kTermVar = std::numeric_limits<std::uint32_t>::max();
/// The `h` of bdd_xor's cache entries. No ITE key carries it: node ids stay
/// below it (make_node refuses the id).
constexpr NodeRef kXorTag = std::numeric_limits<NodeRef>::max();
constexpr std::size_t kMinTableSlots = 256;
/// A recycled table holding at least one entry per this many slots is
/// cleared by one sweep rather than entry by entry.
constexpr std::size_t kSweepRatio = 8;

/// Slot hash for the unique table and the ITE cache. The final fold brings
/// the multiplied high bits down, so every key word reaches the low bits
/// the power-of-two mask keeps.
std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t h = ((std::uint64_t{a} << 32) | b) * 0x9E3779B97F4A7C15ull;
  h = (h ^ c) * 0xC2B2AE3D27D4EB4Full;
  return static_cast<std::size_t>(h ^ (h >> 32));
}
}  // namespace

struct Manager::Tables {
  std::vector<NodeRef> unique;
  std::vector<IteEntry> ite;
};

namespace {
/// Trivially destructible, so it stays readable while the thread's stash
/// is torn down; a manager dying after that frees its tables instead.
thread_local bool tables_gone = false;
}  // namespace

Manager::Tables* Manager::spare_tables() {
  struct Stash {
    Tables t;
    ~Stash() { tables_gone = true; }
  };
  if (tables_gone) return nullptr;
  thread_local Stash stash;
  return &stash.t;
}

std::size_t Manager::retained_bytes() {
  const Tables* s = spare_tables();
  if (!s) return 0;
  return s->unique.capacity() * sizeof(NodeRef) +
         s->ite.capacity() * sizeof(IteEntry);
}

Manager::Manager() {
  nodes_.push_back({kTermVar, kFalse, kFalse});  // 0 = false
  nodes_.push_back({kTermVar, kTrue, kTrue});    // 1 = true
  if (Tables* s = spare_tables()) {
    unique_.swap(s->unique);
    ite_cache_.swap(s->ite);
  }
}

Manager::~Manager() {
  Tables* s = spare_tables();
  if (!s) return;
  // Clear what this build used, then keep each table if it is within the
  // cap and larger than the one the thread already holds. A table the
  // build filled densely is swept whole; a sparse one (a small build in
  // storage a larger one left) is cleared entry by entry. Either way the
  // cost is bounded by a constant times the entries used.
  if (!unique_.empty() &&
      unique_.size() * sizeof(NodeRef) <= kMaxRetainedBytes &&
      unique_.size() > s->unique.size()) {
    if (unique_.size() <= kSweepRatio * nodes_.size()) {
      std::fill(unique_.begin(), unique_.end(), kFalse);
    } else {
      const std::size_t mask = unique_.size() - 1;
      for (NodeRef id = 2; id < nodes_.size(); ++id) {
        const Node& n = nodes_[id];
        // Slots cleared earlier may sit on this node's probe path, so look
        // for the id itself rather than stopping at an empty slot.
        std::size_t i = hash3(n.var, n.lo, n.hi) & mask;
        while (unique_[i] != id) i = (i + 1) & mask;
        unique_[i] = kFalse;
      }
    }
    s->unique.swap(unique_);
  }
  if (!ite_cache_.empty() &&
      ite_cache_.size() * sizeof(IteEntry) <= kMaxRetainedBytes &&
      ite_cache_.size() > s->ite.size()) {
    if (ite_cache_.size() <= kSweepRatio * ite_used_.size()) {
      std::fill(ite_cache_.begin(), ite_cache_.end(), IteEntry{});
    } else {
      for (std::uint32_t i : ite_used_) ite_cache_[i] = {};
    }
    s->ite.swap(ite_cache_);
  }
}

/// Make room for `n` elements, growing at least geometrically. The added
/// bytes are charged to the meter before the allocation, so a memory-cap
/// trip or a failed allocation leaves `v` as it was.
template <class T>
void Manager::reserve_charged(std::vector<T>& v, std::size_t n) {
  if (n <= v.capacity()) return;
  const std::size_t cap = std::max(n, 2 * v.capacity());
  if (meter_) meter_->charge_bytes((cap - v.capacity()) * sizeof(T));
  v.reserve(cap);
}

std::size_t Manager::unique_slot(std::uint32_t var, NodeRef lo,
                                 NodeRef hi) const {
  const std::size_t mask = unique_.size() - 1;
  for (std::size_t i = hash3(var, lo, hi) & mask;; i = (i + 1) & mask) {
    const NodeRef id = unique_[i];
    if (id == kFalse) return i;
    const Node& n = nodes_[id];
    if (n.var == var && n.lo == lo && n.hi == hi) return i;
  }
}

std::size_t Manager::ite_slot(NodeRef f, NodeRef g, NodeRef h) const {
  const std::size_t mask = ite_cache_.size() - 1;
  for (std::size_t i = hash3(f, g, h) & mask;; i = (i + 1) & mask) {
    const IteEntry& e = ite_cache_[i];
    if (e.f == kFalse || (e.f == f && e.g == g && e.h == h)) return i;
  }
}

void Manager::grow_unique() {
  const std::size_t slots = std::max(kMinTableSlots, 2 * unique_slots_);
  if (meter_) meter_->charge_bytes((slots - unique_slots_) * sizeof(NodeRef));
  if (slots > unique_.size()) {
    // Rehash into fresh storage and swap it in, so nothing changes unless
    // the allocation succeeds.
    std::vector<NodeRef> fresh(slots, kFalse);
    const std::size_t mask = slots - 1;
    for (NodeRef id = 2; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      std::size_t i = hash3(n.var, n.lo, n.hi) & mask;
      while (fresh[i] != kFalse) i = (i + 1) & mask;
      fresh[i] = id;
    }
    unique_.swap(fresh);
  }
  unique_slots_ = slots;
}

void Manager::grow_ite_cache() {
  const std::size_t slots = std::max(kMinTableSlots, 2 * ite_slots_);
  if (meter_)
    meter_->charge_bytes((slots - ite_slots_) * sizeof(IteEntry));
  if (slots > ite_cache_.size()) {
    std::vector<IteEntry> fresh(slots, IteEntry{});
    std::vector<std::uint32_t> used;
    const std::size_t mask = slots - 1;
    for (std::uint32_t k : ite_used_) {
      const IteEntry& e = ite_cache_[k];
      std::size_t i = hash3(e.f, e.g, e.h) & mask;
      while (fresh[i].f != kFalse) i = (i + 1) & mask;
      fresh[i] = e;
      used.push_back(static_cast<std::uint32_t>(i));
    }
    ite_cache_.swap(fresh);
    ite_used_.swap(used);
  }
  ite_slots_ = slots;
}

/// Record r as the result for key (f, g, h), growing the cache first if
/// the entry would take it past half load. The recursion that computed r
/// may have grown the cache, so the slot is probed here. The slot is
/// listed before the entry is written, so a failed append leaves no entry
/// that clearing for recycling would miss.
void Manager::cache_result(NodeRef f, NodeRef g, NodeRef h, NodeRef r) {
  if (2 * (ite_used_.size() + 1) > ite_slots_) grow_ite_cache();
  const std::size_t i = ite_slot(f, g, h);
  ite_used_.push_back(static_cast<std::uint32_t>(i));
  ite_cache_[i] = {f, g, h, r};
}

NodeRef Manager::make_node(std::uint32_t var, NodeRef lo, NodeRef hi) {
  if (lo == hi) return lo;
  std::size_t slot = 0;
  if (!unique_.empty()) {
    slot = unique_slot(var, lo, hi);
    if (unique_[slot] != kFalse) return unique_[slot];
  }
  // The only point where the manager grows. Budget and fault checks, and
  // any growth of the node vector and unique table, all come before the
  // insert: if one of them throws, every node is still in the unique table
  // and vice versa — the strong exception guarantee.
  if (meter_) meter_->check_nodes(nodes_.size() + 1);
  fi::alloc_checkpoint();
  if (nodes_.size() >= kXorTag)
    throw std::length_error("bdd::Manager: node ids exhausted");
  reserve_charged(nodes_, nodes_.size() + 1);
  if (2 * (nodes_.size() - 1) > unique_slots_) {
    grow_unique();
    slot = unique_slot(var, lo, hi);
  }
  const NodeRef id = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back({var, lo, hi});
  unique_[slot] = id;
  return id;
}

NodeRef Manager::var(std::uint32_t v) { return make_node(v, kFalse, kTrue); }
NodeRef Manager::nvar(std::uint32_t v) { return make_node(v, kTrue, kFalse); }

std::uint32_t Manager::top_var(NodeRef f, NodeRef g, NodeRef h) const {
  std::uint32_t v = kTermVar;
  if (f > kTrue) v = std::min(v, nodes_[f].var);
  if (g > kTrue) v = std::min(v, nodes_[g].var);
  if (h > kTrue) v = std::min(v, nodes_[h].var);
  return v;
}

NodeRef Manager::ite(NodeRef f, NodeRef g, NodeRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  if (!ite_cache_.empty()) {
    const IteEntry& e = ite_cache_[ite_slot(f, g, h)];
    if (e.f != kFalse) return e.r;
  }
  if (meter_) meter_->step();

  std::uint32_t v = top_var(f, g, h);
  auto cof = [&](NodeRef x, bool hi) -> NodeRef {
    if (x <= kTrue || nodes_[x].var != v) return x;
    return hi ? nodes_[x].hi : nodes_[x].lo;
  };
  NodeRef t = ite(cof(f, true), cof(g, true), cof(h, true));
  NodeRef e = ite(cof(f, false), cof(g, false), cof(h, false));
  NodeRef r = make_node(v, e, t);
  cache_result(f, g, h, r);
  return r;
}

NodeRef Manager::bdd_xor(NodeRef f, NodeRef g) {
  if (f > g) std::swap(f, g);
  // Terminal cases, with f <= g.
  if (f == g) return kFalse;
  if (f == kFalse) return g;
  if (f == kTrue) return bdd_not(g);

  if (!ite_cache_.empty()) {
    const IteEntry& c = ite_cache_[ite_slot(f, g, kXorTag)];
    if (c.f != kFalse) return c.r;
  }
  if (meter_) meter_->step();

  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const std::uint32_t v = std::min(nf.var, ng.var);
  const NodeRef t = bdd_xor(nf.var == v ? nf.hi : f, ng.var == v ? ng.hi : g);
  const NodeRef e = bdd_xor(nf.var == v ? nf.lo : f, ng.var == v ? ng.lo : g);
  const NodeRef r = make_node(v, e, t);
  cache_result(f, g, kXorTag, r);
  return r;
}

NodeRef Manager::restrict_var(NodeRef f, std::uint32_t v, bool val) {
  if (f <= kTrue) return f;
  // Copy, not reference: the recursive calls below go through make_node,
  // which can grow nodes_ and invalidate anything pointing into it.
  const Node n = nodes_[f];
  if (n.var > v) return f;
  if (n.var == v) return val ? n.hi : n.lo;
  // n.var < v: rebuild children.
  NodeRef lo = restrict_var(n.lo, v, val);
  NodeRef hi = restrict_var(n.hi, v, val);
  return make_node(n.var, lo, hi);
}

NodeRef Manager::exists(NodeRef f, std::uint32_t v) {
  return bdd_or(restrict_var(f, v, false), restrict_var(f, v, true));
}

NodeRef Manager::forall(NodeRef f, std::uint32_t v) {
  return bdd_and(restrict_var(f, v, false), restrict_var(f, v, true));
}

NodeRef Manager::exists_set(NodeRef f, std::span<const std::uint32_t> vars) {
  for (std::uint32_t v : vars) f = exists(f, v);
  return f;
}

NodeRef Manager::forall_set(NodeRef f, std::span<const std::uint32_t> vars) {
  for (std::uint32_t v : vars) f = forall(f, v);
  return f;
}

NodeRef Manager::compose(NodeRef f, std::uint32_t v, NodeRef g) {
  // f[v <- g] = ite(g, f|v=1, f|v=0)
  return ite(g, restrict_var(f, v, true), restrict_var(f, v, false));
}

NodeRef Manager::rename(
    NodeRef f, const std::unordered_map<std::uint32_t, std::uint32_t>& map) {
  if (f <= kTrue) return f;
  const Node n = nodes_[f];
  NodeRef lo = rename(n.lo, map);
  NodeRef hi = rename(n.hi, map);
  auto it = map.find(n.var);
  std::uint32_t v = it == map.end() ? n.var : it->second;
  return make_node(v, lo, hi);
}

double Manager::sat_probability(NodeRef f, double p) {
  if (f <= kTrue) return f == kTrue ? 1.0 : 0.0;
  if (p != sat_p_) {
    sat_cache_.clear();
    sat_p_ = p;
  }
  if (f >= sat_cache_.size()) {
    // Children are older than their parent, so one pass in id order finds
    // both of a node's children done.
    reserve_charged(sat_cache_, nodes_.size());
    if (sat_cache_.empty()) sat_cache_ = {0.0, 1.0};
    const double q = 1.0 - p;
    for (std::size_t i = sat_cache_.size(); i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      sat_cache_.push_back(q * sat_cache_[n.lo] + p * sat_cache_[n.hi]);
    }
  }
  return sat_cache_[f];
}

std::size_t Manager::node_count(NodeRef f) {
  NodeRef roots[1] = {f};
  return node_count(roots);
}

std::size_t Manager::node_count(std::span<const NodeRef> roots) {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeRef> stack(roots.begin(), roots.end());
  std::size_t count = 0;
  while (!stack.empty()) {
    NodeRef f = stack.back();
    stack.pop_back();
    if (f <= kTrue || seen[f]) continue;
    seen[f] = 1;
    ++count;
    stack.push_back(nodes_[f].lo);
    stack.push_back(nodes_[f].hi);
  }
  return count;
}

std::vector<std::uint32_t> Manager::support(NodeRef f) {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<std::uint32_t> vars;
  std::vector<NodeRef> stack{f};
  while (!stack.empty()) {
    NodeRef x = stack.back();
    stack.pop_back();
    if (x <= kTrue || seen[x]) continue;
    seen[x] = 1;
    vars.push_back(nodes_[x].var);
    stack.push_back(nodes_[x].lo);
    stack.push_back(nodes_[x].hi);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool Manager::eval(NodeRef f, std::uint64_t assignment) const {
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.var >= 64)
      throw std::out_of_range("Manager::eval: variable index >= 64");
    f = ((assignment >> n.var) & 1u) ? n.hi : n.lo;
  }
  return f == kTrue;
}

std::uint64_t Manager::any_sat(NodeRef f) const {
  if (f == kFalse) throw std::logic_error("any_sat on constant false");
  std::uint64_t a = 0;
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.hi != kFalse) {
      if (n.var < 64) a |= std::uint64_t{1} << n.var;
      f = n.hi;
    } else {
      f = n.lo;
    }
  }
  return a;
}

}  // namespace hlp::bdd
