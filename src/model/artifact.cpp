#include "model/artifact.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>

#include "stats/descriptive.hpp"
#include "util/json.hpp"
#include "util/recordfile.hpp"

namespace hlp::model {

namespace {

constexpr std::string_view kMagic = "HLPMODL1";
/// Sanity cap per record: a serialized model is a few KiB; anything larger
/// is corruption, not data.
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

/// Space-separated shortest-round-trip doubles — the flat-JSON grammar has
/// no arrays, so vectors ride inside string fields.
void append_doubles(std::string& out, std::span<const double> xs) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out.push_back(' ');
    util::append_json_double(out, xs[i]);
  }
}

bool parse_doubles(std::string_view s, std::vector<double>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(' ', pos);
    if (end == std::string_view::npos) end = s.size();
    if (end == pos) return false;  // empty token (double space / edges)
    double v = 0.0;
    const char* b = s.data() + pos;
    const char* e = s.data() + end;
    auto [rest, ec] = std::from_chars(b, e, v);
    if (ec != std::errc{} || rest != e || !std::isfinite(v)) return false;
    out.push_back(v);
    pos = end + 1;
  }
  return true;
}

void append_indices(std::string& out, std::span<const std::size_t> xs) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out.push_back(' ');
    out += std::to_string(xs[i]);
  }
}

bool parse_indices(std::string_view s, std::vector<std::size_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(' ', pos);
    if (end == std::string_view::npos) end = s.size();
    if (end == pos) return false;
    std::size_t v = 0;
    const char* b = s.data() + pos;
    const char* e = s.data() + end;
    auto [rest, ec] = std::from_chars(b, e, v);
    if (ec != std::errc{} || rest != e) return false;
    out.push_back(v);
    pos = end + 1;
  }
  return true;
}

}  // namespace

double Macromodel::predict(const FeatureVector& x) const {
  double y = intercept;
  for (std::size_t i = 0; i < selected.size() && i < beta.size(); ++i)
    y += beta[i] * x.v[selected[i]];
  return y;
}

double Macromodel::halfwidth(const FeatureVector& x, double confidence) const {
  const std::size_t p = selected.size() + 1;
  if (xtx_inv.size() != p * p) return 0.0;
  // x_aug' * XtX^-1 * x_aug with x_aug = [1, selected features...].
  double q = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double xi = i == 0 ? 1.0 : x.v[selected[i - 1]];
    double row = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      const double xj = j == 0 ? 1.0 : x.v[selected[j - 1]];
      row += xtx_inv[i * p + j] * xj;
    }
    q += xi * row;
  }
  if (!(q >= 0.0)) q = 0.0;  // numerically negative leverage: clamp
  const double var = sigma2 * (1.0 + q);
  return stats::normal_quantile_two_sided(confidence) *
         std::sqrt(var > 0.0 ? var : 0.0);
}

bool Macromodel::in_hull(const FeatureVector& x) const {
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    const double lo = hull_lo[i];
    const double hi = hull_hi[i];
    const double tol =
        1e-9 * std::max(1.0, std::max(std::fabs(lo), std::fabs(hi)));
    if (x.v[i] < lo - tol || x.v[i] > hi + tol) return false;
  }
  return true;
}

std::string Macromodel::serialize() const {
  std::string s = "{\"version\":";
  s += std::to_string(version);
  util::append_field(s, "family", family);
  util::append_field(s, "kind", kind);
  std::string vec;
  append_indices(vec, selected);
  util::append_field(s, "selected", vec);
  vec.clear();
  append_doubles(vec, beta);
  util::append_field(s, "beta", vec);
  util::append_field(s, "intercept", intercept);
  util::append_field(s, "sigma2", sigma2);
  util::append_field(s, "dof", dof);
  util::append_field(s, "n", n);
  util::append_field(s, "r2", r2);
  util::append_field(s, "condition", condition);
  vec.clear();
  append_doubles(vec, xtx_inv);
  util::append_field(s, "xtxinv", vec);
  vec.clear();
  append_doubles(vec, {hull_lo.data(), hull_lo.size()});
  util::append_field(s, "hull-lo", vec);
  vec.clear();
  append_doubles(vec, {hull_hi.data(), hull_hi.size()});
  util::append_field(s, "hull-hi", vec);
  s.push_back('}');
  return s;
}

Macromodel::ParseStatus Macromodel::parse(std::string_view line,
                                          Macromodel& out,
                                          std::string& error) {
  util::JsonCursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) {
    error = "not a JSON object";
    return ParseStatus::Malformed;
  }
  Macromodel m;
  std::uint32_t seen = 0;
  auto mark = [&seen](int bit) {
    if (seen & (1u << bit)) return false;
    seen |= 1u << bit;
    return true;
  };
  auto fail = [&error](const char* what) {
    error = what;
    return ParseStatus::Malformed;
  };
  std::vector<double> tmp;

  bool first = true;
  while (true) {
    if (c.eat('}')) break;
    if (!first && !c.eat(',')) return fail("expected ',' or '}'");
    if (first && c.at_end()) return fail("unterminated object");
    first = false;
    std::string key;
    if (!util::parse_json_string(c, key)) return fail("bad key string");
    if (!c.eat(':')) return fail("expected ':'");

    if (key == "version") {
      if (!mark(0) || !util::number_as(util::number_token(c), m.version))
        return fail("bad version value");
    } else if (key == "family") {
      if (!mark(1) || !util::parse_json_string(c, m.family))
        return fail("bad family value");
    } else if (key == "kind") {
      if (!mark(2) || !util::parse_json_string(c, m.kind))
        return fail("bad kind value");
    } else if (key == "selected") {
      std::string v;
      if (!mark(3) || !util::parse_json_string(c, v) ||
          !parse_indices(v, m.selected))
        return fail("bad selected value");
    } else if (key == "beta") {
      std::string v;
      if (!mark(4) || !util::parse_json_string(c, v) ||
          !parse_doubles(v, m.beta))
        return fail("bad beta value");
    } else if (key == "intercept") {
      if (!mark(5) || !util::number_as(util::number_token(c), m.intercept))
        return fail("bad intercept value");
    } else if (key == "sigma2") {
      if (!mark(6) || !util::number_as(util::number_token(c), m.sigma2))
        return fail("bad sigma2 value");
    } else if (key == "dof") {
      if (!mark(7) || !util::number_as(util::number_token(c), m.dof))
        return fail("bad dof value");
    } else if (key == "n") {
      if (!mark(8) || !util::number_as(util::number_token(c), m.n))
        return fail("bad n value");
    } else if (key == "r2") {
      if (!mark(9) || !util::number_as(util::number_token(c), m.r2))
        return fail("bad r2 value");
    } else if (key == "condition") {
      if (!mark(10) || !util::number_as(util::number_token(c), m.condition))
        return fail("bad condition value");
    } else if (key == "xtxinv") {
      std::string v;
      if (!mark(11) || !util::parse_json_string(c, v) ||
          !parse_doubles(v, m.xtx_inv))
        return fail("bad xtxinv value");
    } else if (key == "hull-lo") {
      std::string v;
      if (!mark(12) || !util::parse_json_string(c, v) ||
          !parse_doubles(v, tmp) || tmp.size() != kFeatureCount)
        return fail("bad hull-lo value");
      for (std::size_t i = 0; i < kFeatureCount; ++i) m.hull_lo[i] = tmp[i];
    } else if (key == "hull-hi") {
      std::string v;
      if (!mark(13) || !util::parse_json_string(c, v) ||
          !parse_doubles(v, tmp) || tmp.size() != kFeatureCount)
        return fail("bad hull-hi value");
      for (std::size_t i = 0; i < kFeatureCount; ++i) m.hull_hi[i] = tmp[i];
    } else {
      return fail("unknown key");  // refuse to half-read a damaged record
    }
  }
  if (!util::only_trailing_ws(c)) return fail("trailing garbage");
  if (!(seen & 1u)) return fail("missing version");
  if (m.version != kModelVersion) {
    error = "unsupported model version " + std::to_string(m.version) +
            " (expected " + std::to_string(kModelVersion) + ")";
    return ParseStatus::VersionMismatch;
  }
  if (seen != (1u << 14) - 1) return fail("missing field");
  if (m.family.empty()) return fail("empty family");
  if (m.kind.empty()) return fail("empty kind");
  if (m.beta.size() != m.selected.size())
    return fail("beta/selected size mismatch");
  const std::size_t p = m.selected.size() + 1;
  if (m.xtx_inv.size() != p * p) return fail("xtxinv size mismatch");
  for (std::size_t idx : m.selected)
    if (idx >= kFeatureCount) return fail("selected index out of range");
  if (!(m.sigma2 >= 0.0)) return fail("sigma2 must be non-negative");
  out = std::move(m);
  return ParseStatus::Ok;
}

const char* to_string(ModelFileStatus s) {
  switch (s) {
    case ModelFileStatus::Ok: return "ok";
    case ModelFileStatus::Missing: return "missing";
    case ModelFileStatus::BadMagic: return "bad-magic";
    case ModelFileStatus::VersionMismatch: return "version-mismatch";
    case ModelFileStatus::BadRecord: return "bad-record";
    case ModelFileStatus::IoError: return "io-error";
  }
  return "unknown";
}

ModelLoad decode_models(std::string_view bytes) {
  ModelLoad out;
  const util::FrameScan scan =
      util::scan_frames(bytes, kMagic, kMaxRecordBytes);
  if (scan.good == 0) {
    out.status = ModelFileStatus::BadMagic;
    out.error = "not a model registry file (bad magic)";
    return out;
  }
  for (std::string_view payload : scan.payloads) {
    // CRC verified: the payload is what the writer wrote, so a parse
    // failure here is real corruption (or a future version), not a torn
    // write — reject the whole file with a typed status.
    Macromodel m;
    std::string perr;
    const Macromodel::ParseStatus ps = Macromodel::parse(payload, m, perr);
    if (ps != Macromodel::ParseStatus::Ok) {
      out.error = "record " + std::to_string(out.models.size()) + ": " + perr;
      out.models.clear();
      out.status = ps == Macromodel::ParseStatus::VersionMismatch
                       ? ModelFileStatus::VersionMismatch
                       : ModelFileStatus::BadRecord;
      return out;
    }
    out.models.push_back(std::move(m));
  }
  out.torn_bytes = static_cast<std::uint64_t>(bytes.size() - scan.good);
  return out;
}

ModelLoad load_models_file(const std::string& path) {
  std::string data;
  const util::ReadStatus rs = util::read_file(path, data);
  if (rs == util::ReadStatus::Ok) return decode_models(data);
  ModelLoad out;
  const bool missing = rs == util::ReadStatus::Missing;
  out.status = missing ? ModelFileStatus::Missing : ModelFileStatus::IoError;
  out.error = missing ? "cannot open " + path + ": " + std::strerror(errno)
                      : "read error on " + path;
  return out;
}

bool save_models_file(const std::string& path,
                      std::span<const Macromodel> models, std::string& error) {
  std::string out(kMagic);
  for (const Macromodel& m : models) util::append_frame(out, m.serialize());
  return util::replace_file(path, out, error);
}

}  // namespace hlp::model
