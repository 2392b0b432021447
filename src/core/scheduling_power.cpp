#include "core/scheduling_power.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <string>

#include "stats/rng.hpp"

namespace hlp::core {

using cdfg::Cdfg;
using cdfg::OpDelays;
using cdfg::OpId;
using cdfg::OpKind;
using cdfg::Schedule;

double OpEnergyModel::of(OpKind k, int width) const {
  double w = static_cast<double>(width);
  switch (k) {
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Cmp:
      return add_per_bit * w;
    case OpKind::Mul:
      return mul_per_bit2 * w * w;
    case OpKind::Shift:
      return shift_per_bit * w;
    case OpKind::Mux:
      return mux_per_bit * w;
    default:
      return 0.0;
  }
}

double cdfg_energy(const Cdfg& g, const OpEnergyModel& m,
                   std::span<const double> activation_prob) {
  double e = 0.0;
  for (OpId id = 0; id < g.size(); ++id) {
    double p = id < activation_prob.size() ? activation_prob[id] : 1.0;
    e += p * m.of(g.op(id).kind, g.op(id).width);
  }
  return e;
}

namespace {

/// ASAP with extra precedence edges; returns start times and makespan.
Schedule asap_with_edges(
    const Cdfg& g, const OpDelays& d,
    const std::vector<std::pair<OpId, OpId>>& extra) {
  Schedule s;
  s.start.assign(g.size(), 0);
  std::vector<std::vector<OpId>> extra_preds(g.size());
  for (auto [from, to] : extra) extra_preds[to].push_back(from);
  for (OpId id = 0; id < g.size(); ++id) {
    int t = 0;
    for (OpId p : g.op(id).preds)
      t = std::max(t, s.start[p] + d.of(g.op(p).kind));
    for (OpId p : extra_preds[id])
      t = std::max(t, s.start[p] + d.of(g.op(p).kind));
    s.start[id] = t;
    s.length = std::max(s.length, t + d.of(g.op(id).kind));
  }
  return s;
}

/// Transitive forward-reachable set of `v` (excluding v).
std::vector<bool> forward_reach(const Cdfg& g,
                                const std::vector<std::vector<OpId>>& su,
                                OpId v) {
  std::vector<bool> seen(g.size(), false);
  std::vector<OpId> stack{v};
  while (!stack.empty()) {
    OpId x = stack.back();
    stack.pop_back();
    for (OpId s : su[x])
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
  }
  return seen;
}

}  // namespace

namespace {

PowerManagedSchedule monteiro_schedule_impl(
    const Cdfg& g, int latency_slack, const OpDelays& d,
    const std::map<OpId, double>& branch_prob, exec::Meter* meter,
    std::size_t* muxes_considered) {
  PowerManagedSchedule res;
  res.activation_prob.assign(g.size(), 1.0);
  Schedule base = cdfg::asap(g, d);
  const int latency = base.length + latency_slack;
  auto su = g.succs();

  // Collect muxes bottom-up (closest to the outputs first, per the paper).
  std::vector<OpId> muxes;
  for (OpId id = 0; id < g.size(); ++id)
    if (g.op(id).kind == OpKind::Mux) muxes.push_back(id);
  std::sort(muxes.begin(), muxes.end(), std::greater<>());

  for (OpId m : muxes) {
    // One step per mux candidate: on a trip, muxes already accepted stay
    // managed and the rest run unmanaged — a valid, weaker schedule.
    if (meter && meter->over_budget(1)) break;
    if (muxes_considered) ++*muxes_considered;
    const auto& mp = g.op(m).preds;  // {ctrl, d0, d1}
    auto in_set = [&](const std::vector<OpId>& xs, OpId v) {
      return std::find(xs.begin(), xs.end(), v) != xs.end();
    };
    auto nc = g.transitive_fanin(mp[0]);
    nc.push_back(mp[0]);
    auto n0 = g.transitive_fanin(mp[1]);
    n0.push_back(mp[1]);
    auto n1 = g.transitive_fanin(mp[2]);
    n1.push_back(mp[2]);
    // Nodes in both branch cones (or in the control cone) are needed
    // regardless of the select value: drop them.
    const auto mreach = forward_reach(g, su, m);
    auto exclusive = [&](std::vector<OpId> xs, const std::vector<OpId>& other) {
      std::vector<OpId> out;
      for (OpId v : xs) {
        if (in_set(other, v) || in_set(nc, v)) continue;
        if (!Cdfg::is_compute(g.op(v).kind)) continue;
        // v must influence the rest of the design only through mux m.
        auto reach = forward_reach(g, su, v);
        bool only_through_m = true;
        for (OpId s = 0; s < g.size() && only_through_m; ++s) {
          if (!reach[s] || s == m) continue;
          // Anything v reaches that is neither inside the branch cones nor
          // downstream of m would still need v when the branch is shut
          // down, so v is not eligible.
          if (g.op(s).kind == OpKind::Output) {
            if (!mreach[s]) only_through_m = false;
          } else if (!in_set(n0, s) && !in_set(n1, s) && s != m) {
            if (!mreach[s]) only_through_m = false;
          }
        }
        if (only_through_m) out.push_back(v);
      }
      return out;
    };
    auto ex0 = exclusive(n0, n1);
    auto ex1 = exclusive(n1, n0);
    if (ex0.empty() && ex1.empty()) continue;

    // Tentative precedence edges: the control cone's sink (the ctrl input)
    // must settle before any top node of the managed branch cones starts.
    std::vector<std::pair<OpId, OpId>> tentative = res.added_edges;
    for (OpId v : ex0) tentative.emplace_back(mp[0], v);
    for (OpId v : ex1) tentative.emplace_back(mp[0], v);

    // Feasibility = constrained ASAP still meets the latency bound
    // (equivalently, no node's ASAP exceeds its ALAP for this latency).
    Schedule trial = asap_with_edges(g, d, tentative);
    if (trial.length > latency) continue;

    res.managed_muxes.push_back(m);
    res.added_edges = std::move(tentative);
    double p1 = 0.5;
    if (auto it = branch_prob.find(m); it != branch_prob.end())
      p1 = it->second;
    for (OpId v : ex0) res.activation_prob[v] *= (1.0 - p1);
    for (OpId v : ex1) res.activation_prob[v] *= p1;
  }
  res.schedule = asap_with_edges(g, d, res.added_edges);
  return res;
}

}  // namespace

PowerManagedSchedule monteiro_schedule(
    const Cdfg& g, int latency_slack, const OpDelays& d,
    const std::map<OpId, double>& branch_prob) {
  return monteiro_schedule_impl(g, latency_slack, d, branch_prob, nullptr,
                                nullptr);
}

exec::Outcome<PowerManagedSchedule> monteiro_schedule_budgeted(
    const Cdfg& g, const exec::Budget& budget, int latency_slack,
    const OpDelays& d, const std::map<OpId, double>& branch_prob) {
  exec::Meter meter(budget);
  exec::Outcome<PowerManagedSchedule> out;
  std::size_t considered = 0;
  out.value = monteiro_schedule_impl(g, latency_slack, d, branch_prob,
                                     &meter, &considered);
  out.diag = meter.diag();
  if (out.diag.stop != exec::StopReason::None) {
    out.diag.degraded = true;
    out.diag.degraded_from = "power-managed schedule (all muxes)";
    out.diag.degraded_to = "power-managed schedule (first " +
                           std::to_string(considered) + " mux candidates)";
    out.diag.note = std::to_string(out.value.managed_muxes.size()) +
                    " muxes managed before the budget tripped";
  }
  return out;
}

std::vector<int> bind_round_robin(const Cdfg& g, const Schedule& s,
                                  const std::map<OpKind, int>& limits) {
  std::vector<int> binding(g.size(), -1);
  // Per kind: assign instance = lowest-numbered instance free at this step
  // (instances are "free" if the previous op bound to them finished).
  std::map<OpKind, std::vector<int>> busy_until;
  std::vector<OpId> order(g.size());
  for (OpId id = 0; id < g.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(),
            [&](OpId a, OpId b) { return s.start[a] < s.start[b]; });
  OpDelays d;
  for (OpId id : order) {
    OpKind k = g.op(id).kind;
    if (!Cdfg::is_compute(k)) continue;
    auto& pool = busy_until[k];
    auto limit_it = limits.find(k);
    std::size_t max_inst = limit_it != limits.end()
                               ? static_cast<std::size_t>(limit_it->second)
                               : g.size();
    int chosen = -1;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (pool[i] <= s.start[id]) {
        chosen = static_cast<int>(i);
        break;
      }
    if (chosen < 0 && pool.size() < max_inst) {
      pool.push_back(0);
      chosen = static_cast<int>(pool.size() - 1);
    }
    if (chosen < 0) chosen = 0;  // over-subscribed: share instance 0
    pool[static_cast<std::size_t>(chosen)] = s.start[id] + d.of(k);
    binding[id] = chosen;
  }
  return binding;
}

double fu_input_switching(const Cdfg& g, const Schedule& s,
                          std::span<const int> binding,
                          const cdfg::DataTrace& trace) {
  if (trace.value.empty()) return 0.0;
  // Group ops per (kind, instance), ordered by start step.
  std::map<std::pair<OpKind, int>, std::vector<OpId>> fu;
  for (OpId id = 0; id < g.size(); ++id)
    if (binding[id] >= 0) fu[{g.op(id).kind, binding[id]}].push_back(id);
  double total = 0.0;
  std::size_t pairs = 0;
  for (auto& [key, ops] : fu) {
    std::sort(ops.begin(), ops.end(),
              [&](OpId a, OpId b) { return s.start[a] < s.start[b]; });
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // Consecutive within an iteration; last wraps to first of the next.
      OpId cur = ops[i];
      OpId nxt = ops[(i + 1) % ops.size()];
      if (ops.size() == 1 && trace.value.size() < 2) continue;
      const auto& pc = g.op(cur).preds;
      const auto& pn = g.op(nxt).preds;
      if (pc.size() < 2 || pn.size() < 2) continue;
      int w = std::min(g.op(cur).width, g.op(nxt).width);
      std::uint64_t mask =
          w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
      bool wraps = (i + 1 == ops.size());
      for (std::size_t t = 0; t + (wraps ? 1 : 0) < trace.value.size(); ++t) {
        std::size_t tn = wraps ? t + 1 : t;
        for (int port = 0; port < 2; ++port) {
          auto a = static_cast<std::uint64_t>(
                       trace.value[t][pc[static_cast<std::size_t>(port)]]) &
                   mask;
          auto b = static_cast<std::uint64_t>(
                       trace.value[tn][pn[static_cast<std::size_t>(port)]]) &
                   mask;
          total += static_cast<double>(std::popcount(a ^ b)) /
                   static_cast<double>(w);
        }
        ++pairs;
      }
    }
  }
  return pairs ? total / static_cast<double>(trace.value.size()) : 0.0;
}

namespace {

Schedule activity_driven_schedule_impl(const Cdfg& g,
                                       const std::map<OpKind, int>& limits,
                                       const OpDelays& d,
                                       exec::Meter* meter, bool* tripped) {
  // List scheduling where, among ready ops, we prefer one sharing an operand
  // with the op most recently issued to the same kind of unit.
  Schedule s;
  s.start.assign(g.size(), -1);
  auto su = g.succs();
  std::vector<int> pending(g.size(), 0);
  for (OpId id = 0; id < g.size(); ++id)
    pending[id] = static_cast<int>(g.op(id).preds.size());
  std::vector<OpId> ready;
  for (OpId id = 0; id < g.size(); ++id)
    if (pending[id] == 0) ready.push_back(id);

  Schedule a = cdfg::asap(g, d);
  Schedule l = cdfg::alap(g, a.length + 2, d);

  std::map<OpKind, std::vector<OpId>> last_issued;  // per-kind recent ops
  std::vector<std::pair<int, OpId>> running;
  std::size_t done = 0;
  int step = 0;
  const int guard = static_cast<int>(g.size()) * 8 + 64;
  while (done < g.size() && step < guard) {
    // One step per scheduler time step. A partial list schedule is not a
    // valid schedule (ops left at start = -1), so the budgeted wrapper
    // discards it and degrades to plain ASAP; we just stop burning time.
    if (meter && meter->over_budget(1)) {
      if (tripped) *tripped = true;
      break;
    }
    for (auto it = running.begin(); it != running.end();) {
      if (it->first <= step) {
        for (OpId c : su[it->second])
          if (--pending[c] == 0) ready.push_back(c);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
    std::map<OpKind, int> busy;
    for (auto& [fin, id] : running) ++busy[g.op(id).kind];

    auto affinity = [&](OpId id) {
      OpKind k = g.op(id).kind;
      auto it = last_issued.find(k);
      if (it == last_issued.end() || it->second.empty()) return 0.0;
      OpId prev = it->second.back();
      double shared = 0.0;
      for (OpId p : g.op(id).preds)
        for (OpId q : g.op(prev).preds)
          if (p == q) shared += 1.0;
      return shared;
    };
    std::sort(ready.begin(), ready.end(), [&](OpId x, OpId y) {
      double ax = affinity(x), ay = affinity(y);
      if (ax != ay) return ax > ay;
      int sx = l.start[x] - a.start[x], sy = l.start[y] - a.start[y];
      if (sx != sy) return sx < sy;  // critical first
      return x < y;
    });
    std::vector<OpId> deferred;
    bool progress = true;
    while (progress) {
      progress = false;
      std::sort(ready.begin(), ready.end(), [&](OpId x, OpId y) {
        double ax = affinity(x), ay = affinity(y);
        if (ax != ay) return ax > ay;
        int sx = l.start[x] - a.start[x], sy = l.start[y] - a.start[y];
        if (sx != sy) return sx < sy;
        return x < y;
      });
      std::vector<OpId> next_round;
      for (OpId id : ready) {
        OpKind k = g.op(id).kind;
        auto lim = limits.find(k);
        bool fits = lim == limits.end() || busy[k] < lim->second;
        if (!fits) {
          deferred.push_back(id);
          continue;
        }
        s.start[id] = step;
        ++done;
        progress = true;
        int dur = d.of(k);
        if (dur == 0) {
          for (OpId c : su[id])
            if (--pending[c] == 0) next_round.push_back(c);
        } else {
          ++busy[k];
          running.emplace_back(step + dur, id);
          if (Cdfg::is_compute(k)) last_issued[k].push_back(id);
        }
        s.length = std::max(s.length, step + dur);
      }
      ready = std::move(next_round);
    }
    for (OpId id : ready) deferred.push_back(id);
    ready = std::move(deferred);
    ++step;
  }
  return s;
}

}  // namespace

Schedule activity_driven_schedule(const Cdfg& g,
                                  const std::map<OpKind, int>& limits,
                                  const OpDelays& d) {
  return activity_driven_schedule_impl(g, limits, d, nullptr, nullptr);
}

exec::Outcome<Schedule> activity_driven_schedule_budgeted(
    const Cdfg& g, const exec::Budget& budget,
    const std::map<OpKind, int>& limits, const OpDelays& d) {
  exec::Meter meter(budget);
  exec::Outcome<Schedule> out;
  bool tripped = false;
  out.value = activity_driven_schedule_impl(g, limits, d, &meter, &tripped);
  out.diag = meter.diag();
  if (tripped) {
    // A half-filled list schedule is unusable; fall back to the cheap
    // resource-unaware baseline so the caller always gets a full schedule.
    out.value = cdfg::asap(g, d);
    out.diag.degraded = true;
    out.diag.degraded_from = "activity-driven list schedule";
    out.diag.degraded_to = "asap schedule (resource limits ignored)";
    out.diag.note = "list scheduler hit the budget after " +
                    std::to_string(meter.steps()) + " time steps";
  }
  return out;
}

LoopFoldingResult evaluate_loop_folding(int taps, std::size_t iterations,
                                        int width, std::uint64_t seed) {
  stats::Rng rng(seed);
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  std::vector<std::uint64_t> coef, sample;
  for (int k = 0; k < taps; ++k) coef.push_back(rng.uniform_bits(width));
  for (std::size_t t = 0; t < iterations + static_cast<std::size_t>(taps);
       ++t)
    sample.push_back(rng.uniform_bits(width));

  auto run = [&](bool folded) {
    // Operand sequence seen by the single multiplier's two ports.
    std::uint64_t prev_a = 0, prev_b = 0;
    bool first = true;
    std::uint64_t toggles = 0;
    std::size_t ops = 0;
    for (std::size_t t = 0; t < iterations; ++t) {
      for (int k = 0; k < taps; ++k) {
        std::uint64_t a, b;
        if (!folded) {
          // Iteration t, tap k: data operand x[t - k + taps] walks away.
          a = coef[static_cast<std::size_t>(k)];
          b = sample[t + static_cast<std::size_t>(taps - k)] & mask;
        } else {
          // Folded: all taps applied to sample j = t back to back.
          a = coef[static_cast<std::size_t>(k)];
          b = sample[t + static_cast<std::size_t>(taps)] & mask;
        }
        if (!first)
          toggles += static_cast<std::uint64_t>(
              std::popcount(a ^ prev_a) + std::popcount(b ^ prev_b));
        prev_a = a;
        prev_b = b;
        first = false;
        ++ops;
      }
    }
    return static_cast<double>(toggles) / static_cast<double>(ops);
  };

  LoopFoldingResult res;
  res.sw_unfolded = run(false);
  res.sw_folded = run(true);
  return res;
}

}  // namespace hlp::core
