#include "sim/engine.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "sim/block_kernels.hpp"

namespace hlp::sim {

namespace {

SimDispatch cpu_best() {
#if defined(HLP_SIM_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f")) return SimDispatch::Avx512;
#endif
#if defined(HLP_SIM_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimDispatch::Avx2;
#endif
  return SimDispatch::Portable;
}

SimDispatch env_cap() {
  const char* s = std::getenv("HLP_SIM_DISPATCH");
  if (!s) return SimDispatch::Avx512;
  if (std::strcmp(s, "portable") == 0) return SimDispatch::Portable;
  if (std::strcmp(s, "avx2") == 0) return SimDispatch::Avx2;
  if (std::strcmp(s, "avx512") == 0) return SimDispatch::Avx512;
  return SimDispatch::Avx512;  // unknown values ignored
}

std::atomic<SimDispatch> g_cap{SimDispatch::Avx512};

}  // namespace

const char* to_string(SimDispatch d) {
  switch (d) {
    case SimDispatch::Portable: return "portable";
    case SimDispatch::Avx2: return "avx2";
    case SimDispatch::Avx512: return "avx512";
  }
  return "?";
}

SimDispatch active_dispatch() {
  static const SimDispatch hw = cpu_best();   // CPUID probed once
  static const SimDispatch env = env_cap();   // env read once
  SimDispatch d = hw;
  if (env < d) d = env;
  SimDispatch cap = g_cap.load(std::memory_order_relaxed);
  if (cap < d) d = cap;
  return d;
}

void set_dispatch_cap(SimDispatch cap) {
  g_cap.store(cap, std::memory_order_relaxed);
}

int default_block_words() {
  switch (active_dispatch()) {
    case SimDispatch::Avx512: return 16;
    case SimDispatch::Avx2: return 8;
    case SimDispatch::Portable: return 4;
  }
  return 4;
}

int resolve_block_words(int requested) {
  if (requested <= 0) return default_block_words();
  return requested > 64 ? 64 : requested;
}

bool temporal_packable(const netlist::Netlist& nl) {
  return nl.dffs().empty() && nl.inputs().size() <= 64 &&
         nl.outputs().size() <= 64;
}

void transpose64(std::uint64_t m[64]) {
  detail::portable_kernels().transpose(m);
}

}  // namespace hlp::sim
