#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/features.hpp"

namespace hlp::model {

/// Artifact format version. Bumps when the feature layout (kFeatureCount /
/// feature order), a feature's meaning or the wire fields change; a
/// registry never silently evaluates a model whose version it does not
/// understand. Version 2: the static features (5-8) come from the exact
/// single-time BDD refinement. Version 3: that refinement builds XOR
/// without garbage nodes, so it covers more gates under its node budget
/// and features 5-8 move on designs that used to hit it (mult:7 and up).
inline constexpr int kModelVersion = 3;

/// A fitted power macromodel: everything needed to answer a prediction
/// *with a confidence interval* and to refuse extrapolation.
///
/// value(x)     = intercept + sum_i beta[i] * x[selected[i]]
/// halfwidth(x) = z(conf) * sqrt(sigma2 * (1 + x_aug' * XtX^-1 * x_aug))
/// where x_aug = [1, x[selected[0]], ...] — the standard OLS prediction
/// interval under the normal approximation. `hull_lo/hull_hi` is the
/// axis-aligned bounding box of the training rows over ALL canonical
/// features (not just selected ones): a query outside it is extrapolation
/// and the registry refuses to predict (DESIGN.md §12).
struct Macromodel {
  int version = kModelVersion;
  std::string family;  ///< design-spec prefix the model covers ("adder")
  std::string kind;    ///< kernel kind the labels came from ("symbolic")
  std::vector<std::size_t> selected;  ///< feature indices, selection order
  std::vector<double> beta;           ///< one coefficient per selected entry
  double intercept = 0.0;
  double sigma2 = 0.0;      ///< residual variance rss / dof
  std::uint64_t dof = 0;    ///< training degrees of freedom (n - p)
  std::uint64_t n = 0;      ///< training rows
  double r2 = 0.0;
  double condition = 0.0;   ///< normal-equation condition estimate
  /// (p x p) row-major inverse of the intercept-augmented X'X,
  /// p = selected.size() + 1. Stored so serving can price a query's
  /// leverage in microseconds without the training data.
  std::vector<double> xtx_inv;
  std::array<double, kFeatureCount> hull_lo{};
  std::array<double, kFeatureCount> hull_hi{};

  double predict(const FeatureVector& x) const;
  /// Interval half-width for one query at `confidence` (normal quantile).
  double halfwidth(const FeatureVector& x, double confidence) const;
  /// True when every canonical feature lies inside the training hull
  /// (with a tiny relative tolerance for float round-trips).
  bool in_hull(const FeatureVector& x) const;

  /// Canonical one-line flat JSON (no trailing newline). Vectors are
  /// space-separated shortest-round-trip doubles inside string fields —
  /// the repo's flat-JSON grammar has no arrays — so serialize o parse is
  /// byte-identical (the fuzz harness asserts the fixed point).
  std::string serialize() const;

  enum class ParseStatus : std::uint8_t { Ok, Malformed, VersionMismatch };
  /// Strict parse: known keys only, duplicates rejected, sizes
  /// cross-checked (|beta| == |selected|, |xtx_inv| == (|selected|+1)^2,
  /// hulls exactly kFeatureCount wide, indices < kFeatureCount). On
  /// failure `out` is untouched and `error` says why; VersionMismatch is
  /// distinguished so the registry can answer it as its own typed error.
  static ParseStatus parse(std::string_view line, Macromodel& out,
                           std::string& error);
};

/// --- On-disk registry file ---------------------------------------------------
///
///   file   := magic "HLPMODL1" record*
///   record := len:u32le payload[len] crc:u32le
///
/// with crc = CRC-32 (IEEE) over len + payload and each payload one
/// serialized Macromodel line — util/recordfile framing, shared with the
/// serve cache segment. A torn tail (crashed writer) is truncated
/// at the first unframable record and the intact prefix loads; a record
/// whose CRC verifies but whose payload does not parse is *corruption in
/// sound framing* and rejects the whole file with a typed status (a model
/// registry must be all-or-nothing; serving half a registry silently would
/// change answers).
enum class ModelFileStatus : std::uint8_t {
  Ok,               ///< models usable (torn_bytes may still be > 0)
  Missing,          ///< no file at the path
  BadMagic,         ///< exists but is not a model registry file
  VersionMismatch,  ///< a well-framed record has an unsupported version
  BadRecord,        ///< a well-framed record failed to parse
  IoError,          ///< read/write syscall failure
};

const char* to_string(ModelFileStatus s);

struct ModelLoad {
  ModelFileStatus status = ModelFileStatus::Ok;
  std::vector<Macromodel> models;  ///< file order; empty unless Ok
  std::uint64_t torn_bytes = 0;    ///< trailing unframable bytes dropped
  std::string error;               ///< detail for non-Ok statuses
  bool ok() const { return status == ModelFileStatus::Ok; }
};

/// Decode an in-memory registry image (the file loader and the fuzz
/// harness share this; never throws).
ModelLoad decode_models(std::string_view bytes);

/// Read + decode `path`. Missing file -> ModelFileStatus::Missing.
ModelLoad load_models_file(const std::string& path);

/// Write all models as a fresh registry file: temp file + fsync + rename,
/// so a crash leaves either the old registry or the complete new one.
/// Returns false with `error` set on I/O failure.
bool save_models_file(const std::string& path,
                      std::span<const Macromodel> models, std::string& error);

}  // namespace hlp::model
