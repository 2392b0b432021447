#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/exec.hpp"

namespace hlp::bdd {

/// Reference to a BDD node. 0 and 1 are the constant terminals.
using NodeRef = std::uint32_t;
inline constexpr NodeRef kFalse = 0;
inline constexpr NodeRef kTrue = 1;

/// Reduced ordered binary decision diagram manager (Bryant [84]).
///
/// Plain ROBDDs (no complement arcs) with a unique table and an ITE cache.
/// Variable order is the variable index order (0 = top). The package backs
/// the survey's symbolic techniques: Ferrandi's BDD-node capacitance model
/// (II-B1), precomputation predictor synthesis (III-I), guarded-evaluation
/// observability don't-cares (III-I), and FSM symbolic analysis (III-H).
///
/// Table storage is recycled per thread: a manager starts from the unique
/// table and ITE cache the last manager destroyed on its thread left
/// behind, and hands its own back when it dies, cleared at a cost bounded
/// by the entries its build used, unless a table is larger than
/// kMaxRetainedBytes. The hash uses the storage's physical size, while
/// growth, node-cap checks and memory charges follow each table's logical
/// size, which doubles from empty exactly as in a cold manager. So node
/// ids, meter steps and charged bytes never depend on what the thread
/// built before.
class Manager {
 public:
  /// Largest table, in bytes, a thread keeps for the next manager.
  static constexpr std::size_t kMaxRetainedBytes = std::size_t{1} << 20;

  Manager();
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Bytes of table storage this thread holds for its next manager.
  static std::size_t retained_bytes();

  NodeRef constant(bool b) const { return b ? kTrue : kFalse; }
  /// Projection function for variable v.
  NodeRef var(std::uint32_t v);
  /// Negated projection function.
  NodeRef nvar(std::uint32_t v);

  NodeRef ite(NodeRef f, NodeRef g, NodeRef h);
  NodeRef bdd_not(NodeRef f) { return ite(f, kFalse, kTrue); }
  NodeRef bdd_and(NodeRef f, NodeRef g) { return ite(f, g, kFalse); }
  NodeRef bdd_or(NodeRef f, NodeRef g) { return ite(f, kTrue, g); }
  /// f XOR g as one apply over the ordered pair (f <= g): the same node as
  /// ite(f, bdd_not(g), g) without building the negated copy of g.
  NodeRef bdd_xor(NodeRef f, NodeRef g);
  NodeRef bdd_xnor(NodeRef f, NodeRef g) { return ite(f, g, bdd_not(g)); }

  /// Cofactor of f with variable v fixed to `val`.
  NodeRef restrict_var(NodeRef f, std::uint32_t v, bool val);
  /// Existential / universal quantification over one variable.
  NodeRef exists(NodeRef f, std::uint32_t v);
  NodeRef forall(NodeRef f, std::uint32_t v);
  /// Quantify over a set of variables.
  NodeRef exists_set(NodeRef f, std::span<const std::uint32_t> vars);
  NodeRef forall_set(NodeRef f, std::span<const std::uint32_t> vars);

  /// Substitute variable v by function g in f.
  NodeRef compose(NodeRef f, std::uint32_t v, NodeRef g);

  /// Rename variables: f with var i replaced by var `map[i]` (identity for
  /// indices not in the map). The mapping must be monotone in the variable
  /// order (true for the interleaved state encodings we use).
  NodeRef rename(NodeRef f, const std::unordered_map<std::uint32_t,
                                                     std::uint32_t>& map);

  /// True iff f implies g.
  bool implies(NodeRef f, NodeRef g) { return ite(f, g, kTrue) == kTrue; }

  /// Probability that f is true when every variable is independently 1
  /// with probability p: the weighted count (1-p)*P(lo) + p*P(hi) per
  /// node. Variables skipped between levels integrate out, so the value
  /// holds over any superset of the support. A memo miss fills the memo
  /// for every node built so far, in id order. The memo serves one p at a
  /// time; a call with a different p clears it.
  double sat_probability(NodeRef f, double p);
  /// Fraction of minterms satisfying f: the p = 0.5 case, in which both
  /// weights are exact halves, so it is the plain average of the branches.
  double sat_fraction(NodeRef f) { return sat_probability(f, 0.5); }

  /// Number of internal nodes reachable from f (terminals excluded) — the
  /// "N" of Ferrandi's C_tot = alpha * (m/n) * N * h_out + beta model.
  std::size_t node_count(NodeRef f);
  /// Internal nodes reachable from any of the given roots, deduplicated
  /// (shared subgraphs counted once) — multi-output circuit size.
  std::size_t node_count(std::span<const NodeRef> roots);

  /// Support: sorted list of variables f depends on.
  std::vector<std::uint32_t> support(NodeRef f);

  /// Evaluate under a full assignment (bit v of `assignment` = variable v).
  bool eval(NodeRef f, std::uint64_t assignment) const;

  /// One satisfying assignment (as packed bits over support vars); f must
  /// not be kFalse. Unassigned variables default to 0.
  std::uint64_t any_sat(NodeRef f) const;

  std::size_t total_nodes() const { return nodes_.size(); }

  /// Attach an execution meter (not owned; nullptr detaches). While
  /// attached, node creation checks the budget's node cap, every ITE
  /// cache miss charges one meter step, and every growth of the node
  /// vector, unique table, ITE cache or sat_probability memo charges its
  /// added bytes to the memory cap before it allocates, so runaway
  /// constructions trip the deadline/step quota/memory cap/cancellation
  /// instead of hanging. A trip throws exec::BudgetExceeded mid-operation;
  /// the manager's tables only ever contain completed entries, so it
  /// remains fully usable afterwards.
  void set_meter(exec::Meter* m) { meter_ = m; }
  exec::Meter* meter() const { return meter_; }

  std::uint32_t node_var(NodeRef f) const { return nodes_[f].var; }
  NodeRef node_lo(NodeRef f) const { return nodes_[f].lo; }
  NodeRef node_hi(NodeRef f) const { return nodes_[f].hi; }
  bool is_terminal(NodeRef f) const { return f <= kTrue; }

 private:
  struct Node {
    std::uint32_t var;
    NodeRef lo, hi;
  };
  /// One ITE cache entry. f == kFalse marks an empty slot: a terminal f is
  /// answered before the cache is consulted, so it never forms a key.
  /// bdd_xor's entries are (f, g, kXorTag).
  struct IteEntry {
    NodeRef f, g, h, r;
  };
  /// The thread's recycled table storage.
  struct Tables;
  static Tables* spare_tables();

  NodeRef make_node(std::uint32_t var, NodeRef lo, NodeRef hi);
  std::uint32_t top_var(NodeRef f, NodeRef g, NodeRef h) const;
  std::size_t unique_slot(std::uint32_t var, NodeRef lo, NodeRef hi) const;
  std::size_t ite_slot(NodeRef f, NodeRef g, NodeRef h) const;
  void grow_unique();
  void grow_ite_cache();
  void cache_result(NodeRef f, NodeRef g, NodeRef h, NodeRef r);
  template <class T>
  void reserve_charged(std::vector<T>& v, std::size_t n);

  std::vector<Node> nodes_;
  /// Unique table: open addressing with linear probing over node ids
  /// (kFalse = empty slot), keyed by the node's (var, lo, hi). Its logical
  /// size `unique_slots_` is a power of two (or zero before the first
  /// node) and doubles before an insert would take it past half load; the
  /// storage is a power of two at least that large.
  std::vector<NodeRef> unique_;
  std::size_t unique_slots_ = 0;
  /// Exact computed table for ite() and bdd_xor(): the same scheme, with
  /// logical size `ite_slots_`. It never drops an entry, so a repeated call
  /// is always a hit. `ite_used_` lists the occupied slots, so clearing a
  /// sparse table for recycling touches only those.
  std::vector<IteEntry> ite_cache_;
  std::size_t ite_slots_ = 0;
  std::vector<std::uint32_t> ite_used_;
  /// sat_probability memo indexed by NodeRef, valid for `sat_p_`: a
  /// prefix of the node ids, terminals included, extended in id order.
  std::vector<double> sat_cache_;
  double sat_p_ = 0.5;
  exec::Meter* meter_ = nullptr;
};

}  // namespace hlp::bdd
