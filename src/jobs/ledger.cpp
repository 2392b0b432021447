#include "jobs/ledger.hpp"

#include <fcntl.h>

#include <algorithm>
#include <stdexcept>

#include "util/json.hpp"
#include "util/recordfile.hpp"

namespace hlp::jobs {

const char* to_string(RecordKind k) {
  switch (k) {
    case RecordKind::Enqueued: return "enqueued";
    case RecordKind::Started: return "started";
    case RecordKind::AttemptFailed: return "attempt-failed";
    case RecordKind::Retried: return "retried";
    case RecordKind::Degraded: return "degraded";
    case RecordKind::Checkpoint: return "checkpoint";
    case RecordKind::Completed: return "completed";
  }
  return "unknown";
}

bool parse_record_kind(std::string_view s, RecordKind& out) {
  for (RecordKind k :
       {RecordKind::Enqueued, RecordKind::Started, RecordKind::AttemptFailed,
        RecordKind::Retried, RecordKind::Degraded, RecordKind::Checkpoint,
        RecordKind::Completed}) {
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

// JSON writing/escaping and the strict line-parsing primitives live in
// util/json.hpp, shared with the bench reports and the serve wire protocol.
// The canonical-form guarantee (serialize∘parse byte-identical) is theirs;
// this file owns only the ledger's field vocabulary and per-kind ordering.
using util::append_field;
using util::append_json_string;
using util::number_as;
using util::number_token;
using util::parse_json_string;

using Cursor = util::JsonCursor;

std::string LedgerRecord::serialize() const {
  std::string s = "{\"rec\":";
  append_json_string(s, to_string(kind));
  append_field(s, "seq", seq);
  append_field(s, "job", job);
  switch (kind) {
    case RecordKind::Enqueued:
      append_field(s, "kind", job_kind);
      append_field(s, "design", design);
      break;
    case RecordKind::Started:
      append_field(s, "attempt", attempt);
      break;
    case RecordKind::AttemptFailed:
      append_field(s, "attempt", attempt);
      append_field(s, "error", error);
      append_field(s, "detail", detail);
      break;
    case RecordKind::Retried:
      append_field(s, "attempt", attempt);
      append_field(s, "delay", delay_seconds);
      break;
    case RecordKind::Degraded:
      append_field(s, "attempt", attempt);
      append_field(s, "from", from);
      append_field(s, "to", to);
      break;
    case RecordKind::Checkpoint:
      append_field(s, "attempt", attempt);
      append_field(s, "ckpt", checkpoint);
      break;
    case RecordKind::Completed:
      append_field(s, "attempts", attempts);
      append_field(s, "degraded", degraded);
      append_field(s, "value", value);
      append_field(s, "detail", detail);
      break;
  }
  s.push_back('}');
  return s;
}

bool LedgerRecord::parse(std::string_view line, LedgerRecord& out) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return false;
  LedgerRecord r;
  bool have_rec = false, have_seq = false, have_job = false;
  std::uint32_t seen = 0;  // duplicate-key bitmap, one bit per known key
  bool first = true;
  while (true) {
    if (c.eat('}')) break;
    if (!first && !c.eat(',')) return false;
    if (first && c.at_end()) return false;
    first = false;
    std::string key;
    if (!parse_json_string(c, key)) return false;
    if (!c.eat(':')) return false;

    auto mark = [&seen](int bit) {
      if (seen & (1u << bit)) return false;
      seen |= 1u << bit;
      return true;
    };

    if (key == "rec") {
      std::string v;
      if (!mark(0) || !parse_json_string(c, v)) return false;
      if (!parse_record_kind(v, r.kind)) return false;
      have_rec = true;
    } else if (key == "seq") {
      if (!mark(1) || !number_as(number_token(c), r.seq)) return false;
      have_seq = true;
    } else if (key == "job") {
      if (!mark(2) || !parse_json_string(c, r.job)) return false;
      have_job = true;
    } else if (key == "kind") {
      if (!mark(3) || !parse_json_string(c, r.job_kind)) return false;
    } else if (key == "design") {
      if (!mark(4) || !parse_json_string(c, r.design)) return false;
    } else if (key == "attempt") {
      if (!mark(5) || !number_as(number_token(c), r.attempt) || r.attempt < 0)
        return false;  // serialize() would clamp a negative count to 0
    } else if (key == "error") {
      if (!mark(6) || !parse_json_string(c, r.error)) return false;
    } else if (key == "detail") {
      if (!mark(7) || !parse_json_string(c, r.detail)) return false;
    } else if (key == "delay") {
      if (!mark(8) || !number_as(number_token(c), r.delay_seconds))
        return false;
    } else if (key == "from") {
      if (!mark(9) || !parse_json_string(c, r.from)) return false;
    } else if (key == "to") {
      if (!mark(10) || !parse_json_string(c, r.to)) return false;
    } else if (key == "ckpt") {
      if (!mark(11) || !parse_json_string(c, r.checkpoint)) return false;
    } else if (key == "attempts") {
      if (!mark(12) || !number_as(number_token(c), r.attempts) ||
          r.attempts < 0)
        return false;
    } else if (key == "degraded") {
      if (!mark(13) || !util::parse_json_bool(c, r.degraded)) return false;
    } else if (key == "value") {
      if (!mark(14) || !number_as(number_token(c), r.value)) return false;
    } else {
      return false;  // unknown key: refuse to half-read a damaged line
    }
  }
  // Only trailing whitespace may follow the closing brace.
  if (!util::only_trailing_ws(c)) return false;
  if (!have_rec || !have_seq || !have_job) return false;
  // serialize() writes only the kind's fields (bits as marked, indexed by
  // RecordKind); a record carrying another could not round-trip.
  constexpr std::uint32_t kKindFields[] = {0x1f,  0x27,  0xe7,  0x127,
                                           0x627, 0x827, 0x7087};
  if (seen & ~kKindFields[static_cast<int>(r.kind)]) return false;
  out = std::move(r);
  return true;
}

LedgerWriter::LedgerWriter(const std::string& path, bool truncate)
    : log_(::open(path.c_str(),
                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                      (truncate ? O_TRUNC : 0),
                  0644)) {
  if (log_.wedged())
    throw std::runtime_error("jobs: cannot open ledger file '" + path + "'");
}

void LedgerWriter::append(const LedgerRecord& rec) {
  std::string line = rec.serialize();
  line.push_back('\n');
  log_.append(line, 1);
}

void LedgerWriter::append_batch(std::span<const LedgerRecord> recs) {
  if (recs.empty()) return;
  std::string text;
  for (const LedgerRecord& rec : recs) {
    text += rec.serialize();
    text.push_back('\n');
  }
  log_.append(text, recs.size());
}

std::uint64_t LedgerScan::max_seq() const {
  std::uint64_t m = 0;
  for (const auto& r : records) m = std::max(m, r.seq);
  return m;
}

LedgerScan scan_ledger_text(std::string_view text) {
  LedgerScan scan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool truncated = nl == std::string_view::npos;
    std::string_view line =
        text.substr(pos, truncated ? std::string_view::npos : nl - pos);
    pos = truncated ? text.size() : nl + 1;
    if (line.empty()) continue;
    LedgerRecord rec;
    if (LedgerRecord::parse(line, rec)) {
      scan.records.push_back(std::move(rec));
    } else {
      ++scan.malformed_lines;
      if (scan.warnings.size() < 32) {
        std::string why = truncated ? "truncated final line (crash mid-write)"
                                    : "malformed record";
        scan.warnings.push_back(
            why + ": " +
            std::string(line.substr(0, std::min<std::size_t>(line.size(), 80))));
      }
    }
  }
  return scan;
}

LedgerScan read_ledger(const std::string& path) {
  std::string text;
  if (util::read_file(path, text) == util::ReadStatus::Missing) return {};
  return scan_ledger_text(text);
}

}  // namespace hlp::jobs
