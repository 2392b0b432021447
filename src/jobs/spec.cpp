#include "jobs/spec.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <unordered_set>

#include "util/recordfile.hpp"

namespace hlp::jobs {

namespace {

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) toks.push_back(line.substr(start, i - start));
  }
  return toks;
}

template <typename T>
T parse_num(std::string_view tok, int line, const char* what) {
  T v{};
  auto [rest, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || rest != tok.data() + tok.size())
    throw SpecError(line, std::string("bad ") + what + " value '" +
                              std::string(tok) + "'");
  return v;
}

double parse_positive(std::string_view tok, int line, const char* what) {
  double v = parse_num<double>(tok, line, what);
  if (!(v >= 0.0))
    throw SpecError(line, std::string(what) + " must be non-negative");
  return v;
}

void apply_job_key(Job& job, std::string_view key, std::string_view val,
                   int line) {
  if (key == "epsilon") {
    job.epsilon = parse_positive(val, line, "epsilon");
  } else if (key == "confidence") {
    job.confidence = parse_positive(val, line, "confidence");
    if (job.confidence <= 0.0 || job.confidence >= 1.0)
      throw SpecError(line, "confidence must be in (0, 1)");
  } else if (key == "min-pairs") {
    job.min_pairs = parse_num<std::size_t>(val, line, "min-pairs");
  } else if (key == "max-pairs") {
    job.max_pairs = parse_num<std::size_t>(val, line, "max-pairs");
  } else if (key == "max-iters") {
    job.max_iters = parse_num<int>(val, line, "max-iters");
  } else if (key == "deadline") {
    job.budget.deadline_seconds = parse_positive(val, line, "deadline");
  } else if (key == "wall-deadline") {
    job.attempt_deadline_seconds =
        parse_positive(val, line, "wall-deadline");
  } else if (key == "node-cap") {
    job.budget.node_cap = parse_num<std::size_t>(val, line, "node-cap");
  } else if (key == "step-quota") {
    job.budget.step_quota = parse_num<std::size_t>(val, line, "step-quota");
  } else if (key == "memory-cap") {
    job.budget.memory_cap_bytes =
        parse_num<std::size_t>(val, line, "memory-cap");
  } else if (key == "mc-threads") {
    job.mc_threads = parse_num<int>(val, line, "mc-threads");
    if (job.mc_threads < 0)
      throw SpecError(line, "mc-threads must be >= 0");
  } else {
    throw SpecError(line, "unknown job key '" + std::string(key) + "'");
  }
}

}  // namespace

CampaignSpec parse_campaign_spec(std::string_view text) {
  CampaignSpec spec;
  std::unordered_set<std::string> ids;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    std::vector<std::string_view> toks = split_ws(line);
    if (toks.empty()) continue;

    if (toks[0] == "workers") {
      if (toks.size() != 2) throw SpecError(line_no, "workers takes one value");
      spec.workers = parse_num<int>(toks[1], line_no, "workers");
      if (spec.workers < 1 || spec.workers > 256)
        throw SpecError(line_no, "workers must be in [1, 256]");
    } else if (toks[0] == "max-attempts") {
      if (toks.size() != 2)
        throw SpecError(line_no, "max-attempts takes one value");
      spec.retry.max_attempts =
          parse_num<int>(toks[1], line_no, "max-attempts");
      if (spec.retry.max_attempts < 1)
        throw SpecError(line_no, "max-attempts must be >= 1");
    } else if (toks[0] == "base-delay") {
      if (toks.size() != 2)
        throw SpecError(line_no, "base-delay takes one value");
      spec.retry.base_delay_seconds =
          parse_positive(toks[1], line_no, "base-delay");
    } else if (toks[0] == "job") {
      if (toks.size() < 4)
        throw SpecError(line_no, "job needs: job <id> <kind> <design>");
      Job job;
      job.id = std::string(toks[1]);
      if (!ids.insert(job.id).second)
        throw SpecError(line_no, "duplicate job id '" + job.id + "'");
      if (!parse_job_kind(toks[2], job.kind) || job.kind == JobKind::Custom)
        throw SpecError(line_no, "unknown job kind '" + std::string(toks[2]) +
                                     "' (symbolic, monte-carlo, markov, "
                                     "schedule)");
      job.design = std::string(toks[3]);
      for (std::size_t t = 4; t < toks.size(); ++t) {
        std::size_t eq = toks[t].find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq + 1 >= toks[t].size())
          throw SpecError(line_no, "job option must be key=value, got '" +
                                       std::string(toks[t]) + "'");
        apply_job_key(job, toks[t].substr(0, eq), toks[t].substr(eq + 1),
                      line_no);
      }
      spec.jobs.push_back(std::move(job));
    } else {
      throw SpecError(line_no, "unknown directive '" + std::string(toks[0]) +
                                   "'");
    }
  }
  return spec;
}

CampaignSpec read_campaign_spec(const std::string& path) {
  std::string text;
  if (util::read_file(path, text) != util::ReadStatus::Ok) {
    // The errno text turns "cannot read" into an actionable message — a
    // missing file, a permission problem, and a directory-as-file all read
    // identically without it.
    const int err = errno;
    throw std::runtime_error("jobs: cannot read campaign spec '" + path +
                             "': " + std::strerror(err));
  }
  return parse_campaign_spec(text);
}

}  // namespace hlp::jobs
