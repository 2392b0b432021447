#pragma once

// Minimal machine-readable bench output: a flat JSON writer for the
// BENCH_*.json files that track the perf trajectory across PRs. No
// external dependency; only the shapes our benches need (objects, arrays,
// strings, numbers). String escaping is the shared canonical policy from
// util/json.hpp (also used by the campaign ledger and the serve wire
// protocol); doubles here use %.6g — report files trade round-trip
// exactness for readability, unlike the ledger.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace hlp::benchjson {

struct Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::string, double, std::uint64_t, bool, Object, Array> v;
  Value(const char* s) : v(std::string(s)) {}
  Value(std::string s) : v(std::move(s)) {}
  Value(double d) : v(d) {}
  Value(std::uint64_t u) : v(u) {}
  Value(int i) : v(static_cast<std::uint64_t>(i)) {}
  Value(bool b) : v(b) {}
  Value(Object o) : v(std::move(o)) {}
  Value(Array a) : v(std::move(a)) {}
};

inline void write_value(std::FILE* f, const Value& val, int indent);

inline void write_indent(std::FILE* f, int n) {
  for (int i = 0; i < n; ++i) std::fputc(' ', f);
}

inline void write_string(std::FILE* f, const std::string& s) {
  std::string quoted;
  util::append_json_string(quoted, s);
  std::fwrite(quoted.data(), 1, quoted.size(), f);
}

inline void write_object(std::FILE* f, const Object& o, int indent) {
  std::fputs("{\n", f);
  for (std::size_t i = 0; i < o.size(); ++i) {
    write_indent(f, indent + 2);
    write_string(f, o[i].first);
    std::fputs(": ", f);
    write_value(f, o[i].second, indent + 2);
    if (i + 1 < o.size()) std::fputc(',', f);
    std::fputc('\n', f);
  }
  write_indent(f, indent);
  std::fputc('}', f);
}

inline void write_array(std::FILE* f, const Array& a, int indent) {
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    write_indent(f, indent + 2);
    write_value(f, a[i], indent + 2);
    if (i + 1 < a.size()) std::fputc(',', f);
    std::fputc('\n', f);
  }
  write_indent(f, indent);
  std::fputc(']', f);
}

inline void write_value(std::FILE* f, const Value& val, int indent) {
  if (const auto* s = std::get_if<std::string>(&val.v)) {
    write_string(f, *s);
  } else if (const auto* d = std::get_if<double>(&val.v)) {
    std::fprintf(f, "%.6g", *d);
  } else if (const auto* u = std::get_if<std::uint64_t>(&val.v)) {
    std::fprintf(f, "%llu", static_cast<unsigned long long>(*u));
  } else if (const auto* b = std::get_if<bool>(&val.v)) {
    std::fputs(*b ? "true" : "false", f);
  } else if (const auto* o = std::get_if<Object>(&val.v)) {
    write_object(f, *o, indent);
  } else if (const auto* a = std::get_if<Array>(&val.v)) {
    write_array(f, *a, indent);
  }
}

/// The host a report was measured on, in the fields perfbench stamps:
/// online cores, SIMD dispatch level, compiler and build type
/// (HLP_BENCH_BUILD_TYPE comes from bench/CMakeLists.txt).
inline Object machine() {
  return Object{
      {"nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"dispatch", sim::to_string(sim::active_dispatch())},
      {"compiler", "gcc " __VERSION__},
      {"build_type", HLP_BENCH_BUILD_TYPE},
  };
}

/// Write `root` to `path` (overwrites). Returns false on I/O failure.
inline bool save(const std::string& path, const Object& root) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_object(f, root, 0);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace hlp::benchjson
