#include "sim/block_simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace hlp::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

detail::KernelChoice detail::select_kernels(int words) {
  const SimDispatch cap = active_dispatch();
#if defined(HLP_SIM_HAVE_AVX512)
  if (cap >= SimDispatch::Avx512 && words % 8 == 0)
    return {avx512_kernels(), SimDispatch::Avx512};
#endif
#if defined(HLP_SIM_HAVE_AVX2)
  if (cap >= SimDispatch::Avx2 && words % 4 == 0)
    return {avx2_kernels(), SimDispatch::Avx2};
#endif
  (void)cap;
  return {portable_kernels(), SimDispatch::Portable};
}

namespace {

/// Append gate `id`'s ops (see detail::BlockOp). Buf and Not read fanin 0
/// only and Mux fanins 0..2, as netlist::eval_gate does; a reducer with one
/// fanin is a Buf or Not of it, and with none it is its constant.
void compile_gate(GateId id, const Gate& g, std::vector<detail::BlockOp>& ops) {
  using detail::kOpAnd, detail::kOpInv, detail::kOpXor;
  const auto& f = g.fanins;
  std::uint32_t form = 0;
  switch (g.kind) {
    case GateKind::Buf: case GateKind::And: form = kOpAnd; break;
    case GateKind::Not: case GateKind::Nand: form = kOpAnd | kOpInv; break;
    case GateKind::Or: form = kOpXor | kOpAnd; break;
    case GateKind::Nor: form = kOpXor | kOpAnd | kOpInv; break;
    case GateKind::Xor: form = kOpXor; break;
    case GateKind::Xnor: form = kOpXor | kOpInv; break;
    case GateKind::Mux:
      if (f.size() < 3)
        throw std::invalid_argument("BlockSimulator: Mux needs 3 fanins");
      ops.push_back({id, f[1], f[2], f[0], detail::kOpMux});
      return;
    default: return;  // Input/Const/Dff are sources
  }
  const bool unary = g.kind == GateKind::Buf || g.kind == GateKind::Not;
  if (unary || f.size() == 1) {
    ops.push_back({id, f.at(0), f[0], 0, kOpAnd | (form & kOpInv)});
  } else if (f.empty()) {  // the empty And is ones, Or and Xor zeros
    const bool ones = ((form & kOpXor) == 0) != ((form & kOpInv) != 0);
    ops.push_back({id, id, id, 0, ones ? kOpInv : 0});
  } else {  // a chain; only its last op inverts
    for (std::size_t i = 1; i < f.size(); ++i)
      ops.push_back({id, i == 1 ? f[0] : id, f[i], 0,
                     i + 1 == f.size() ? form : form & ~kOpInv});
  }
}

}  // namespace

BlockSimulator::BlockSimulator(const netlist::Netlist& nl, int words)
    : nl_(&nl), words_(resolve_block_words(words)) {
  const detail::KernelChoice kc = detail::select_kernels(words_);
  kernel_ = kc.kernels.eval;
  dispatch_ = kc.dispatch;
  for (GateId id : nl.topo_order()) compile_gate(id, nl.gate(id), ops_);
  reset();
}

void BlockSimulator::reset() {
  const auto W = static_cast<std::size_t>(words_);
  spare_.clear();
  lanes_.assign(nl_->gate_count() * W, 0);
  for (GateId g = 0; g < nl_->gate_count(); ++g)
    if (nl_->gate(g).kind == GateKind::Const1)
      for (std::size_t w = 0; w < W; ++w)
        lanes_[std::size_t{g} * W + w] = ~std::uint64_t{0};
  for (GateId d : nl_->dffs()) {
    const std::uint64_t v = nl_->dff_init(d) ? ~std::uint64_t{0} : 0;
    for (std::size_t w = 0; w < W; ++w) lanes_[std::size_t{d} * W + w] = v;
  }
}

void BlockSimulator::set_input_lanes(GateId input,
                                     std::span<const std::uint64_t> w) {
  if (w.size() != static_cast<std::size_t>(words_))
    throw std::invalid_argument(
        "BlockSimulator::set_input_lanes: span size must equal words()");
  const auto W = static_cast<std::size_t>(words_);
  for (std::size_t i = 0; i < W; ++i) lanes_[std::size_t{input} * W + i] = w[i];
}

void BlockSimulator::set_inputs_from_cycles(
    std::span<const std::uint64_t> cycle_words) {
  auto ins = nl_->inputs();
  if (ins.size() > 64)
    throw std::out_of_range(
        "BlockSimulator::set_inputs_from_cycles: more than 64 inputs");
  const auto W = static_cast<std::size_t>(words_);
  for (std::size_t w = 0; w < W; ++w) {
    // Sub-word w carries cycles [w*64, w*64+64) of the block.
    std::uint64_t m[64] = {};
    const std::size_t base = w * 64;
    const std::size_t count =
        cycle_words.size() > base
            ? (cycle_words.size() - base < 64 ? cycle_words.size() - base : 64)
            : 0;
    for (std::size_t k = 0; k < count; ++k) m[k] = cycle_words[base + k];
    transpose64(m);
    for (std::size_t i = 0; i < ins.size(); ++i)
      lanes_[std::size_t{ins[i]} * W + w] = m[i];
  }
}

void BlockSimulator::eval() {
  kernel_(lanes_.data(), words_, ops_.data(), ops_.size());
}

void BlockSimulator::swap_lanes() {
  if (spare_.size() != lanes_.size()) {
    // First swap since reset(): start from a copy, which holds the
    // constant lanes.
    spare_ = lanes_;
  } else {
    const auto W = static_cast<std::size_t>(words_);
    for (GateId d : nl_->dffs())
      std::copy_n(lanes_.begin() + std::size_t{d} * W, W,
                  spare_.begin() + std::size_t{d} * W);
  }
  lanes_.swap(spare_);
}

void BlockSimulator::tick() {
  const auto W = static_cast<std::size_t>(words_);
  dff_next_.clear();
  for (GateId d : nl_->dffs()) {
    const Gate& g = nl_->gate(d);
    const GateId src = g.fanins.empty() ? d : g.fanins[0];
    for (std::size_t w = 0; w < W; ++w)
      dff_next_.push_back(lanes_[std::size_t{src} * W + w]);
  }
  std::size_t i = 0;
  for (GateId d : nl_->dffs())
    for (std::size_t w = 0; w < W; ++w)
      lanes_[std::size_t{d} * W + w] = dff_next_[i++];
}

void BlockSimulator::temporal_toggles(std::size_t count, bool first_block,
                                      std::span<std::uint8_t> last,
                                      std::span<std::uint64_t> toggles) const {
  const auto W = static_cast<std::size_t>(words_);
  const std::size_t sub_words = (count + 63) / 64;
  for (GateId g = 0; g < nl_->gate_count(); ++g) {
    const std::uint64_t* lw = lanes_.data() + std::size_t{g} * W;
    std::uint64_t* t = toggles.data() + std::size_t{g} * W;
    std::uint8_t lg = last[g];
    for (std::size_t w = 0; w < sub_words; ++w) {
      const std::size_t c = std::min<std::size_t>(64, count - w * 64);
      const std::uint64_t mask =
          c == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << c) - 1);
      const std::uint64_t x = lw[w] & mask;
      t[w] = (x ^ ((x << 1) | static_cast<std::uint64_t>(lg))) & mask;
      lg = static_cast<std::uint8_t>((x >> (c - 1)) & 1u);
    }
    std::fill(t + sub_words, t + W, std::uint64_t{0});
    if (first_block) t[0] &= ~std::uint64_t{1};
    last[g] = lg;
  }
}

void BlockSimulator::outputs_to_cycles(std::span<std::uint64_t> out) const {
  auto outs = nl_->outputs();
  if (outs.size() > 64)
    throw std::out_of_range(
        "BlockSimulator::outputs_to_cycles: more than 64 outputs");
  const auto W = static_cast<std::size_t>(words_);
  for (std::size_t w = 0; w < W; ++w) {
    const std::size_t base = w * 64;
    if (out.size() <= base) break;
    std::uint64_t m[64] = {};
    for (std::size_t i = 0; i < outs.size(); ++i)
      m[i] = lanes_[std::size_t{outs[i]} * W + w];
    transpose64(m);
    const std::size_t count =
        out.size() - base < 64 ? out.size() - base : 64;
    for (std::size_t k = 0; k < count; ++k) out[base + k] = m[k];
  }
}

}  // namespace hlp::sim
