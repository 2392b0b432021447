#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/recordfile.hpp"

namespace hlp::jobs {

/// --- Durable campaign ledger ----------------------------------------------
///
/// Every job state transition is appended to a JSON-lines ledger *before*
/// the runner acts on it (write-ahead): one flat JSON object per line,
/// durable (flushed and fsync'd) before the append returns — concurrent
/// appends share fsyncs via group commit without weakening that guarantee.
/// A killed process therefore loses at most
/// the attempts that were in flight — on restart, `Runner::resume` scans
/// the ledger, skips every job with a `completed` record, and restores
/// interrupted Monte Carlo estimates from their latest `checkpoint` record.
///
/// Crash model: the only corruption a kill can produce is a truncated
/// final line (a write cut mid-record). The scanner skips any line that is
/// not a complete, well-formed record — counting it and warning, never
/// crashing — so a ledger is always readable no matter where the previous
/// process died. See DESIGN.md §8 for the full format specification.

/// One record kind per job lifecycle transition (DESIGN.md §8 state
/// machine). `Checkpoint` is not a transition: it snapshots resumable
/// kernel state next to the `attempt-failed` record it accompanies.
enum class RecordKind : std::uint8_t {
  Enqueued,       ///< job admitted to the campaign (id, kind, design)
  Started,        ///< attempt N began on some worker
  AttemptFailed,  ///< attempt N ended in a classified error
  Retried,        ///< attempt N+1 scheduled after backoff delay
  Degraded,       ///< retry will run the downgraded (sampled) kernel
  Checkpoint,     ///< serialized resumable kernel state (Monte Carlo)
  Completed,      ///< job finished; value + attempt count are final
};

const char* to_string(RecordKind k);
bool parse_record_kind(std::string_view s, RecordKind& out);

/// One ledger line. Only the fields meaningful for `kind` are serialized
/// (see each field's comment); the rest stay at their defaults.
struct LedgerRecord {
  RecordKind kind = RecordKind::Enqueued;
  std::uint64_t seq = 0;  ///< campaign-monotone sequence number (all kinds)
  std::string job;        ///< job id (all kinds)

  // Enqueued
  std::string job_kind;  ///< kernel kind name ("monte-carlo", ...)
  std::string design;    ///< design generator spec ("adder:16", ...)

  // Started / AttemptFailed / Retried / Degraded / Checkpoint
  int attempt = 0;  ///< 1-based; for Retried, the *upcoming* attempt

  // AttemptFailed
  std::string error;   ///< ErrorClass name ("budget-exhausted", ...)
  std::string detail;  ///< free text (also used by Completed)

  // Retried
  double delay_seconds = 0.0;  ///< backoff slept before the next attempt

  // Degraded
  std::string from;  ///< method abandoned (e.g. "bdd-sat-fraction")
  std::string to;    ///< fallback method (e.g. "monte-carlo")

  // Checkpoint
  std::string checkpoint;  ///< core::MonteCarloCheckpoint::serialize()

  // Completed
  int attempts = 0;      ///< total attempts consumed
  bool degraded = false; ///< value came from a downgraded kernel
  double value = 0.0;    ///< the job's scalar estimate

  /// Canonical single-line JSON (no trailing newline). Field order is
  /// fixed per kind and doubles use shortest-round-trip formatting, so
  /// serialize(parse(serialize(r))) is byte-identical to serialize(r).
  std::string serialize() const;

  /// Parse one ledger line. Accepts the known keys in any order (unknown
  /// keys, and known keys the record's kind does not carry, are rejected —
  /// a truncated line that happens to re-synchronize must not be
  /// half-read). Returns false on any malformation, leaving `out`
  /// untouched.
  static bool parse(std::string_view line, LedgerRecord& out);

  bool operator==(const LedgerRecord&) const = default;
};

/// Append-only writer with group commit (util::GroupCommitAppender): every
/// append is durable (written and fsync'd) before it returns — the
/// write-ahead discipline — while records that several threads complete
/// concurrently share one write + fsync. A record is never acknowledged
/// before it is on disk; the only kill artifact is a truncated final line.
///
/// `append_batch` extends the same protocol to a caller who already holds
/// several records (the runner's enqueue burst): the whole batch rides one
/// enqueue and is covered by one fsync.
///
/// A failed write or fsync closes the ledger rather than killing the
/// campaign; a later resume re-runs whatever the lost records covered.
///
/// All members are thread-safe. File order may interleave records from
/// concurrent appenders in any order — `seq` is campaign-monotone but the
/// ledger format has never promised file-order monotonicity, and the
/// scanner orders by content, not position.
class LedgerWriter {
 public:
  LedgerWriter() = default;
  /// `truncate` starts a fresh ledger; otherwise appends to an existing
  /// one (resume). Throws std::runtime_error if the file cannot be opened.
  explicit LedgerWriter(const std::string& path, bool truncate = true);
  LedgerWriter(const LedgerWriter&) = delete;
  LedgerWriter& operator=(const LedgerWriter&) = delete;

  bool open() const { return !log_.wedged(); }
  void append(const LedgerRecord& rec);
  /// Append several records with one durable commit (single fsync for the
  /// batch, possibly shared with concurrent appenders).
  void append_batch(std::span<const LedgerRecord> recs);

  /// Records durably retired so far (monotone; for benches/diagnostics).
  std::uint64_t records_committed() const { return log_.records_committed(); }
  /// Physical fsync batches issued. records_committed / flush_batches is
  /// the group-commit amortization factor (1.0 = no batching happened).
  std::uint64_t flush_batches() const { return log_.flush_batches(); }

 private:
  util::GroupCommitAppender log_;
};

/// Result of scanning a ledger: every well-formed record in file order,
/// plus a count of skipped (malformed or truncated) lines with one warning
/// string each (capped to keep a hostile file from ballooning memory).
struct LedgerScan {
  std::vector<LedgerRecord> records;
  std::size_t malformed_lines = 0;
  std::vector<std::string> warnings;

  /// Highest sequence number seen (0 when empty); a resumed campaign
  /// continues numbering from here.
  std::uint64_t max_seq() const;
};

/// Scan ledger text (exposed separately for tests and the fuzz harness).
LedgerScan scan_ledger_text(std::string_view text);

/// Read and scan a ledger file. A missing file yields an empty scan — a
/// resume against a ledger that was never created is a fresh campaign.
LedgerScan read_ledger(const std::string& path);

}  // namespace hlp::jobs
