// hlp::model tests: feature extraction, the CRC-framed artifact file,
// fitting, the registry's refusal semantics, and the serve predicted tier
// end to end (DESIGN.md §12).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "jobs/kernels.hpp"
#include "model/artifact.hpp"
#include "model/characterize.hpp"
#include "model/features.hpp"
#include "model/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "stats/regression.hpp"
#include "util/hash.hpp"

namespace {

using namespace hlp;
using model::FeatureVector;
using model::kFeatureCount;
using model::Macromodel;
using model::ModelFileStatus;
using model::ModelLoad;
using model::ModelRegistry;
using model::PredictStatus;
using serve::Op;
using serve::Request;
using serve::ResponseView;
using serve::Service;
using serve::ServiceOptions;

std::string temp_model_path(const std::string& tag) {
  return ::testing::TempDir() + "hlp_model_" + tag + "_" +
         std::to_string(::getpid()) + ".hlpm";
}

/// A structurally valid model over a [0, 1]^kFeatureCount hull:
/// value = 2 + 3 * gates, with unit inference by-products.
Macromodel simple_model(const std::string& family, const std::string& kind,
                        double intercept = 2.0) {
  Macromodel m;
  m.family = family;
  m.kind = kind;
  m.selected = {0};
  m.beta = {3.0};
  m.intercept = intercept;
  m.sigma2 = 0.01;
  m.dof = 10;
  m.n = 12;
  m.r2 = 0.99;
  m.condition = 4.0;
  m.xtx_inv = {0.5, 0.0, 0.0, 0.5};  // 2x2 identity-ish
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    m.hull_lo[i] = 0.0;
    m.hull_hi[i] = 1.0;
  }
  return m;
}

// --- Features ---------------------------------------------------------------

TEST(ModelFeatures, DeterministicAndStatisticsSensitive) {
  const FeatureVector a = model::extract_features("adder:8", 0.5);
  const FeatureVector b = model::extract_features("adder:8", 0.5);
  for (std::size_t i = 0; i < kFeatureCount; ++i)
    EXPECT_EQ(a.v[i], b.v[i]) << model::feature_name(i);

  // Structural features are real counts.
  EXPECT_GT(a.v[0], 0.0);  // gates
  EXPECT_GT(a.v[1], 0.0);  // inputs
  EXPECT_GT(a.v[3], 0.0);  // cap
  // Static bounds bracket the point estimate.
  EXPECT_LE(a.v[6], a.v[5] + 1e-12);
  EXPECT_LE(a.v[5], a.v[7] + 1e-12);
  // Input-statistics features reflect p.
  EXPECT_DOUBLE_EQ(a.v[9], 0.5);
  EXPECT_DOUBLE_EQ(a.v[10], 0.5);

  const FeatureVector c = model::extract_features("adder:8", 0.25);
  EXPECT_DOUBLE_EQ(c.v[9], 0.25);
  EXPECT_DOUBLE_EQ(c.v[10], 2 * 0.25 * 0.75);
  // Activity figures move with the input statistics.
  EXPECT_NE(a.v[5], c.v[5]);
}

TEST(ModelFeatures, ValidationThrowsTyped) {
  EXPECT_THROW(model::extract_features("nosuch:4", 0.5), std::invalid_argument);
  EXPECT_THROW(model::extract_features("adder:8", -0.1), std::invalid_argument);
  EXPECT_THROW(model::extract_features("adder:8", 1.5), std::invalid_argument);
  EXPECT_EQ(model::design_family("adder:16"), "adder");
  EXPECT_EQ(model::design_family("c17"), "c17");
}

// --- Artifact ---------------------------------------------------------------

TEST(ModelArtifact, SerializeParseIsByteIdenticalFixedPoint) {
  Macromodel m = simple_model("adder", "symbolic");
  m.selected = {0, 5, 9};
  m.beta = {1.25, -0.5, 1e-3};
  m.xtx_inv.assign(16, 0.0);
  for (int i = 0; i < 4; ++i) m.xtx_inv[i * 4 + i] = 0.25;
  m.hull_lo[4] = -3.5;
  m.hull_hi[4] = 17.25;

  const std::string line = m.serialize();
  Macromodel parsed;
  std::string err;
  ASSERT_EQ(Macromodel::parse(line, parsed, err), Macromodel::ParseStatus::Ok)
      << err;
  EXPECT_EQ(parsed.serialize(), line);
  EXPECT_EQ(parsed.family, "adder");
  EXPECT_EQ(parsed.selected, m.selected);
  EXPECT_EQ(parsed.beta, m.beta);
  EXPECT_EQ(parsed.dof, m.dof);
  EXPECT_EQ(parsed.hull_hi[4], 17.25);
}

TEST(ModelArtifact, ParseRejectsMalformedWithoutTouchingOut) {
  Macromodel out = simple_model("keep", "symbolic", 7.0);
  std::string err;
  // Size cross-check violation: |beta| != |selected|.
  Macromodel bad = simple_model("adder", "symbolic");
  bad.beta.push_back(1.0);
  EXPECT_EQ(Macromodel::parse(bad.serialize(), out, err),
            Macromodel::ParseStatus::Malformed);
  EXPECT_EQ(out.family, "keep");
  EXPECT_EQ(out.intercept, 7.0);

  EXPECT_EQ(Macromodel::parse("{\"nonsense\":1}", out, err),
            Macromodel::ParseStatus::Malformed);
  EXPECT_EQ(out.family, "keep");
}

TEST(ModelArtifact, VersionMismatchIsItsOwnStatus) {
  Macromodel m = simple_model("adder", "symbolic");
  m.version = model::kModelVersion + 1;
  Macromodel out;
  std::string err;
  EXPECT_EQ(Macromodel::parse(m.serialize(), out, err),
            Macromodel::ParseStatus::VersionMismatch);
}

TEST(ModelArtifact, FileRoundTripAndMissing) {
  const std::string path = temp_model_path("roundtrip");
  std::remove(path.c_str());
  EXPECT_EQ(model::load_models_file(path).status, ModelFileStatus::Missing);

  std::vector<Macromodel> models = {simple_model("adder", "symbolic"),
                                    simple_model("mult", "monte-carlo", 5.0)};
  std::string err;
  ASSERT_TRUE(model::save_models_file(path, models, err)) << err;
  const ModelLoad back = model::load_models_file(path);
  ASSERT_TRUE(back.ok()) << back.error;
  ASSERT_EQ(back.models.size(), 2u);
  EXPECT_EQ(back.models[0].serialize(), models[0].serialize());
  EXPECT_EQ(back.models[1].serialize(), models[1].serialize());
  EXPECT_EQ(back.torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ModelArtifact, TornTailLoadsIntactPrefix) {
  std::vector<Macromodel> models = {simple_model("adder", "symbolic"),
                                    simple_model("mult", "symbolic")};
  const std::string path = temp_model_path("torn");
  std::string err;
  ASSERT_TRUE(model::save_models_file(path, models, err)) << err;
  std::string bytes;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());

  // A crash mid-append: drop half of the second record.
  const std::string torn = bytes.substr(0, bytes.size() - 40);
  const ModelLoad load = model::decode_models(torn);
  ASSERT_TRUE(load.ok()) << load.error;
  ASSERT_EQ(load.models.size(), 1u);
  EXPECT_EQ(load.models[0].family, "adder");
  EXPECT_GT(load.torn_bytes, 0u);

  // Trailing garbage after intact records is also a torn tail.
  const ModelLoad junk = model::decode_models(bytes + "xyz");
  ASSERT_TRUE(junk.ok());
  EXPECT_EQ(junk.models.size(), 2u);
  EXPECT_EQ(junk.torn_bytes, 3u);
}

TEST(ModelArtifact, BadMagicAndCrcValidCorruptionAreTyped) {
  EXPECT_EQ(model::decode_models("not a registry").status,
            ModelFileStatus::BadMagic);

  // Frame a CRC-valid record whose payload is not a model: corruption in
  // sound framing rejects the whole file.
  std::string bytes("HLPMODL1", 8);
  const std::string payload = "{\"version\":1,\"garbage\":true}";
  const std::size_t frame_start = bytes.size();
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  bytes += payload;
  const std::uint32_t crc =
      util::crc32(bytes.data() + frame_start, bytes.size() - frame_start);
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  const ModelLoad load = model::decode_models(bytes);
  EXPECT_EQ(load.status, ModelFileStatus::BadRecord);
  EXPECT_TRUE(load.models.empty());
  EXPECT_NE(load.error.find("record 0"), std::string::npos) << load.error;

  // Same framing around a future-version record: typed as version skew.
  Macromodel future = simple_model("adder", "symbolic");
  future.version = model::kModelVersion + 3;
  std::vector<Macromodel> models = {future};
  const std::string path = temp_model_path("skew");
  std::string err;
  ASSERT_TRUE(model::save_models_file(path, models, err)) << err;
  EXPECT_EQ(model::load_models_file(path).status,
            ModelFileStatus::VersionMismatch);
  std::remove(path.c_str());
}

// --- Fitting ----------------------------------------------------------------

/// Synthetic rows: power = 10 + 4 * gates - 2 * depth + noise-free, with
/// the other features varying so the hull is non-degenerate.
std::vector<model::Row> synthetic_rows(int n) {
  std::vector<model::Row> rows;
  for (int i = 0; i < n; ++i) {
    model::Row r;
    r.design = "fake:" + std::to_string(i);
    for (std::size_t f = 0; f < kFeatureCount; ++f)
      r.x.v[f] = 0.1 * static_cast<double>((i * (f + 3)) % 17);
    r.x.v[0] = static_cast<double>(i);            // gates
    r.x.v[4] = static_cast<double>((i * 7) % 13); // depth
    r.power = 10.0 + 4.0 * r.x.v[0] - 2.0 * r.x.v[4];
    rows.push_back(r);
  }
  return rows;
}

TEST(ModelFit, RecoversLinearStructure) {
  const std::vector<model::Row> rows = synthetic_rows(40);
  const model::FitReport rep =
      model::fit_macromodel(rows, "fake", "symbolic");
  EXPECT_EQ(rep.model.family, "fake");
  EXPECT_GT(rep.train_r2, 0.999);
  EXPECT_LT(rep.holdout_mape, 0.01);
  EXPECT_GT(rep.holdout_rows, 0u);
  EXPECT_FALSE(rep.selected_names.empty());

  // The fitted artifact predicts a training row back.
  const model::Row& probe = rows[8];
  EXPECT_NEAR(rep.model.predict(probe.x), probe.power,
              1e-6 * std::abs(probe.power) + 1e-6);
  EXPECT_TRUE(rep.model.in_hull(probe.x));
  // Interval machinery is sane: positive width, wider at higher confidence.
  const double hw95 = rep.model.halfwidth(probe.x, 0.95);
  const double hw99 = rep.model.halfwidth(probe.x, 0.99);
  EXPECT_GE(hw95, 0.0);
  EXPECT_GT(hw99, hw95 * 0.99);
}

TEST(ModelFit, TooFewRowsThrows) {
  const std::vector<model::Row> rows = synthetic_rows(2);
  EXPECT_THROW(model::fit_macromodel(rows, "fake", "symbolic"),
               std::invalid_argument);
}

TEST(ModelFit, IllConditionedDesignRaisesTheWarning) {
  // One feature lives at 1e12 scale: the normal equations stay solvable
  // but their condition estimate explodes past the 1e8 warning bar.
  std::vector<model::Row> rows = synthetic_rows(30);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].x.v[3] = 1e12 * (1.0 + 0.001 * static_cast<double>(i));
    rows[i].power += 1e-10 * rows[i].x.v[3];
  }
  model::FitOptions opts;
  opts.holdout_frac = 0.0;
  const model::FitReport rep =
      model::fit_macromodel(rows, "fake", "symbolic", opts);
  if (rep.condition > 1e8) {
    EXPECT_TRUE(rep.condition_warning);
  }
  EXPECT_GT(rep.condition, 0.0);
}

// --- Registry ---------------------------------------------------------------

TEST(ModelRegistryLookup, RoutesRefusesAndScoresIntervals) {
  ModelRegistry reg;
  reg.insert(simple_model("adder", "symbolic"));

  FeatureVector in;
  for (std::size_t i = 0; i < kFeatureCount; ++i) in.v[i] = 0.5;
  const model::Prediction hit = reg.predict("adder", "symbolic", in, 0.95);
  ASSERT_TRUE(hit.ok());
  EXPECT_NEAR(hit.value, 2.0 + 3.0 * 0.5, 1e-12);
  EXPECT_GT(hit.halfwidth, 0.0);

  // Out-of-hull: one coordinate beyond the training box.
  FeatureVector out = in;
  out.v[7] = 2.0;
  EXPECT_EQ(reg.predict("adder", "symbolic", out, 0.95).status,
            PredictStatus::OutOfHull);

  // Unknown family / kind.
  EXPECT_EQ(reg.predict("mult", "symbolic", in, 0.95).status,
            PredictStatus::NoModel);
  EXPECT_EQ(reg.predict("adder", "monte-carlo", in, 0.95).status,
            PredictStatus::NoModel);

  // Last insert wins for the same (family, kind).
  reg.insert(simple_model("adder", "symbolic", 100.0));
  EXPECT_EQ(reg.size(), 1u);
  const Macromodel* m = reg.find("adder", "symbolic");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->intercept, 100.0);
}

// --- Characterize + fit + serve end to end ----------------------------------

Request accuracy_request(const std::string& design, double accuracy,
                         jobs::JobKind kind = jobs::JobKind::Symbolic) {
  Request rq;
  rq.op = Op::Estimate;
  rq.kind = kind;
  rq.design = design;
  rq.has_accuracy = true;
  rq.accuracy = accuracy;
  return rq;
}

/// Shared expensive fixture: one real characterization campaign over the
/// adder family, fitted and saved once. The static features are exact on
/// adders, so a grid at p = 0.5 alone would fit y = static-point with zero
/// residual variance; the three-point input-p grid keeps a real interval.
class ServeModelE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model::SweepSpec spec;
    spec.family = "adder";
    spec.kind = jobs::JobKind::Symbolic;
    spec.params = {4, 6, 8, 10, 12};
    spec.input_p = {0.3, 0.5, 0.7};
    jobs::RunnerOptions ropts;
    ropts.workers = 2;
    const model::Characterization ch = model::characterize(spec, ropts);
    ASSERT_TRUE(ch.complete());
    ASSERT_EQ(ch.rows.size(), 15u);
    model::FitOptions fopts;
    fopts.holdout_frac = 0.0;  // 15 rows: train on all of them
    const model::FitReport rep =
        model::fit_macromodel(ch.rows, "adder", "symbolic", fopts);
    path_ = temp_model_path("e2e");
    std::string err;
    std::vector<Macromodel> models = {rep.model};
    ASSERT_TRUE(model::save_models_file(path_, models, err)) << err;
  }
  static void TearDownTestSuite() { std::remove(path_.c_str()); }
  static std::string path_;
};

std::string ServeModelE2E::path_;

TEST_F(ServeModelE2E, InDomainAnswersFromPredictedTierWithCoveringInterval) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.model_path = path_;
  Service service(opts);
  ASSERT_EQ(service.health().models_loaded, 1u);

  // Ground truth from the real symbolic kernel.
  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::Symbolic;
  krq.design = "adder:8";
  const jobs::AttemptOutcome truth = jobs::run_kernel(krq, exec::Budget{});
  ASSERT_TRUE(truth.ok);

  const std::string line = accuracy_request("adder:8", 0.5).serialize();
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), v));
  ASSERT_TRUE(v.ok);
  EXPECT_EQ(v.tier, "predicted");
  ASSERT_TRUE(v.has_interval);
  EXPECT_LE(v.interval_lo, truth.out.value);
  EXPECT_GE(v.interval_hi, truth.out.value);
  EXPECT_LE(v.interval_lo, v.value);
  EXPECT_GE(v.interval_hi, v.value);

  // Warm repeats never touch a kernel: microsecond-class, but assert a
  // generous CI-safe bound and the counter instead of a tight clock.
  const auto t0 = std::chrono::steady_clock::now();
  ResponseView v2;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), v2));
  const double warm_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(v2.tier, "predicted");
  EXPECT_LT(warm_s, 0.05);
  EXPECT_EQ(service.health().model_predicted, 2u);
  // Predicted answers are never cached: no cache traffic happened.
  EXPECT_EQ(service.metrics().hits, 0u);
  EXPECT_EQ(service.metrics().misses, 0u);
}

TEST_F(ServeModelE2E, TightAccuracyEscalatesToExactKernel) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.model_path = path_;
  Service service(opts);

  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::Symbolic;
  krq.design = "adder:8";
  const jobs::AttemptOutcome truth = jobs::run_kernel(krq, exec::Budget{});
  ASSERT_TRUE(truth.ok);

  // An interval this tight is beyond the model: the request escalates and
  // gets the exact kernel answer, tagged with the exact tier.
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(accuracy_request("adder:8", 1e-9).serialize()), v));
  ASSERT_TRUE(v.ok);
  EXPECT_EQ(v.tier, "exact");
  EXPECT_FALSE(v.has_interval);
  EXPECT_DOUBLE_EQ(v.value, truth.out.value);
  EXPECT_EQ(service.health().model_escalated, 1u);
  EXPECT_EQ(service.health().model_predicted, 0u);
}

TEST_F(ServeModelE2E, OutOfHullAndUnknownFamilyNeverAnswerFromTheModel) {
  // Stub executor: the exact path costs nothing, so this test isolates the
  // routing decision (model vs kernel) from kernel cost.
  std::atomic<int> kernel_calls{0};
  ServiceOptions opts;
  opts.workers = 0;
  opts.model_path = path_;
  opts.executor = [&kernel_calls](const jobs::KernelRequest&,
                                  const exec::Budget&) {
    ++kernel_calls;
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 42.0;
    ao.out.detail = "stub";
    return ao;
  };
  Service service(opts);

  // adder:14 is in-family but outside the training hull (params 4..12).
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(accuracy_request("adder:14", 0.9).serialize()), v));
  ASSERT_TRUE(v.ok);
  EXPECT_EQ(v.tier, "exact");
  EXPECT_EQ(v.value, 42.0);
  EXPECT_EQ(service.health().model_out_of_hull, 1u);

  // No model covers the parity family: typed miss, kernel answers.
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(
          accuracy_request("parity:8", 0.9).serialize()),
      v));
  ASSERT_TRUE(v.ok);
  EXPECT_EQ(v.tier, "exact");
  EXPECT_EQ(service.health().model_miss, 1u);
  EXPECT_EQ(service.health().model_predicted, 0u);
  EXPECT_EQ(kernel_calls.load(), 2);

  // A request without an accuracy field never consults the model and its
  // response carries no tier marker at all (byte-compatible with PR 6).
  Request plain;
  plain.op = Op::Estimate;
  plain.kind = jobs::JobKind::Symbolic;
  plain.design = "adder:8";
  const std::string body = service.handle_line(plain.serialize());
  EXPECT_EQ(body.find("\"tier\":"), std::string::npos);
}

// --- Registry lifecycle on the service --------------------------------------

TEST(ServeModelLifecycle, MissingCorruptAndSkewedFilesAreTypedAndNonFatal) {
  Service service;  // no model_path: empty registry
  EXPECT_EQ(service.health().models_loaded, 0u);
  EXPECT_EQ(service.models(), nullptr);

  // Missing file: typed, registry unchanged.
  Service::ModelsStatus ms = service.load_models(temp_model_path("absent"));
  EXPECT_EQ(ms.status, ModelFileStatus::Missing);
  EXPECT_EQ(service.models(), nullptr);

  // Healthy file loads.
  const std::string good = temp_model_path("life_good");
  std::vector<Macromodel> models = {simple_model("adder", "symbolic")};
  std::string err;
  ASSERT_TRUE(model::save_models_file(good, models, err)) << err;
  ms = service.load_models(good);
  ASSERT_TRUE(ms.ok()) << ms.error;
  EXPECT_EQ(ms.count, 1u);
  EXPECT_EQ(service.health().models_loaded, 1u);

  // Bad magic: typed failure, the previous registry keeps serving.
  const std::string bad = temp_model_path("life_bad");
  {
    FILE* f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("BOGUS FILE", f);
    std::fclose(f);
  }
  ms = service.load_models(bad);
  EXPECT_EQ(ms.status, ModelFileStatus::BadMagic);
  EXPECT_EQ(service.health().models_loaded, 1u);
  ASSERT_NE(service.models(), nullptr);
  EXPECT_NE(service.models()->find("adder", "symbolic"), nullptr);

  // Version skew: typed, previous registry retained.
  Macromodel future = simple_model("mult", "symbolic");
  future.version = model::kModelVersion + 1;
  std::vector<Macromodel> skewed = {future};
  const std::string skew = temp_model_path("life_skew");
  ASSERT_TRUE(model::save_models_file(skew, skewed, err)) << err;
  ms = service.load_models(skew);
  EXPECT_EQ(ms.status, ModelFileStatus::VersionMismatch);
  EXPECT_EQ(service.health().models_loaded, 1u);

  // Torn tail is survivable: intact prefix replaces the registry.
  std::vector<Macromodel> two = {simple_model("adder", "symbolic", 9.0),
                                 simple_model("mult", "symbolic")};
  const std::string torn = temp_model_path("life_torn");
  ASSERT_TRUE(model::save_models_file(torn, two, err)) << err;
  {
    FILE* f = std::fopen(torn.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(torn.c_str(), size - 25), 0);
  }
  ms = service.load_models(torn);
  ASSERT_TRUE(ms.ok()) << ms.error;
  EXPECT_EQ(ms.count, 1u);
  EXPECT_GT(ms.torn_bytes, 0u);
  ASSERT_NE(service.models(), nullptr);
  const Macromodel* m = service.models()->find("adder", "symbolic");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->intercept, 9.0);  // hot-reload really swapped the registry

  for (const std::string& p : {good, bad, skew, torn}) std::remove(p.c_str());
}

TEST(ServeModelLifecycle, HotReloadRaceIsSafeUnderConcurrentPredictions) {
  // Two registry files with different models for the same key; reload flips
  // between them while reader threads hammer the predicted tier. TSan-clean
  // by construction: readers snapshot the shared_ptr, writers swap it.
  const std::string a = temp_model_path("race_a");
  const std::string b = temp_model_path("race_b");
  std::string err;
  {
    // Hulls wide enough that adder:8's real features are inside.
    Macromodel ma = simple_model("adder", "symbolic", 1.0);
    Macromodel mb = simple_model("adder", "symbolic", 2.0);
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
      ma.hull_lo[i] = mb.hull_lo[i] = -1e9;
      ma.hull_hi[i] = mb.hull_hi[i] = 1e9;
    }
    std::vector<Macromodel> va = {ma}, vb = {mb};
    ASSERT_TRUE(model::save_models_file(a, va, err)) << err;
    ASSERT_TRUE(model::save_models_file(b, vb, err)) << err;
  }

  ServiceOptions opts;
  opts.workers = 0;
  opts.executor = [](const jobs::KernelRequest&, const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 7.0;
    return ao;
  };
  Service service(opts);
  ASSERT_TRUE(service.load_models(a).ok());

  const std::string line = accuracy_request("adder:8", 0.99).serialize();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ResponseView v;
        ASSERT_TRUE(serve::parse_response(service.handle_line(line), v));
        ASSERT_TRUE(v.ok);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(service.load_models(i % 2 ? b : a).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_GT(answered.load(), 0u);
  const serve::ServiceHealth h = service.health();
  EXPECT_EQ(h.model_predicted + h.model_escalated + h.model_out_of_hull +
                h.model_miss,
            answered.load());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- Characterization campaign plumbing -------------------------------------

TEST(ModelCharacterize, WelfordCheckpointRestartsTheBiasedLabel) {
  // A "<count> <mean> <m2>" checkpoint from before exact moments is not
  // resumed: the label restarts at pair 0 and equals a fresh one.
  model::SweepSpec spec;
  spec.family = "adder";
  spec.params = {6};
  spec.input_p = {0.3};
  const std::vector<jobs::Job> js = model::sweep_jobs(spec);
  ASSERT_EQ(js.size(), 1u);
  core::MonteCarloCheckpoint old;
  ASSERT_TRUE(core::MonteCarloCheckpoint::parse(
      "520 55.08846153846152 1234.5678901234567", old));
  const jobs::AttemptOutcome fresh = js[0].custom({}, false, nullptr);
  const jobs::AttemptOutcome resumed = js[0].custom({}, false, &old);
  ASSERT_TRUE(fresh.ok);
  ASSERT_TRUE(resumed.ok);
  EXPECT_EQ(resumed.out.value, fresh.out.value);
  EXPECT_EQ(resumed.out.detail, fresh.out.detail);
}

TEST(ModelCharacterize, GridJobsAreDeterministicAndLedgerResumable) {
  model::SweepSpec spec;
  spec.family = "adder";
  spec.params = {4, 6};
  spec.input_p = {0.3, 0.5};
  const std::vector<jobs::Job> js = model::sweep_jobs(spec);
  ASSERT_EQ(js.size(), 4u);
  // Ids are stable text: same spec -> same ids (they seed the RNG).
  const std::vector<jobs::Job> js2 = model::sweep_jobs(spec);
  for (std::size_t i = 0; i < js.size(); ++i) EXPECT_EQ(js[i].id, js2[i].id);
  EXPECT_NE(js[0].id, js[1].id);

  // Biased-MC labels at p != 0.5 differ from the p = 0.5 labels.
  jobs::RunnerOptions ropts;
  ropts.workers = 2;
  const model::Characterization ch = model::characterize(spec, ropts);
  ASSERT_TRUE(ch.complete());
  ASSERT_EQ(ch.rows.size(), 4u);
  double p03 = 0.0, p05 = 0.0;
  for (const model::Row& r : ch.rows) {
    if (r.design == "adder:4" && r.input_p == 0.3) p03 = r.power;
    if (r.design == "adder:4" && r.input_p == 0.5) p05 = r.power;
  }
  EXPECT_GT(p03, 0.0);
  EXPECT_GT(p05, 0.0);
  EXPECT_NE(p03, p05);

  // Re-running the same campaign reproduces every label bit for bit.
  const model::Characterization ch2 = model::characterize(spec, ropts);
  ASSERT_EQ(ch2.rows.size(), ch.rows.size());
  for (std::size_t i = 0; i < ch.rows.size(); ++i)
    EXPECT_EQ(ch.rows[i].power, ch2.rows[i].power) << ch.rows[i].design;
}

}  // namespace
