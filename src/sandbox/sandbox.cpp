#include "sandbox/sandbox.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exec/fi.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace hlp::sandbox {

namespace {

using Clock = std::chrono::steady_clock;

/// Which chaos fault (if any) the child must perform. Decided in the
/// *parent*, before fork: the fi serve-fault slots are process-global
/// one-shots, and claiming one inside the child would only disarm the
/// child's copy-on-write copy — every later fork would take the same hit.
enum class Inject : std::uint8_t { None, Segv, Oom, Wedge };

Inject claim_injected_fault() {
  if (fi::serve_fault_checkpoint(fi::ServeFault::ChildSegv))
    return Inject::Segv;
  if (fi::serve_fault_checkpoint(fi::ServeFault::ChildOom))
    return Inject::Oom;
  if (fi::serve_fault_checkpoint(fi::ServeFault::ChildWedge))
    return Inject::Wedge;
  return Inject::None;
}

/// Child body. Never returns; every path ends in _exit or a signal death.
[[noreturn]] void child_main(int wfd, const jobs::KernelRequest& rq,
                             const exec::Budget& budget, const Limits& limits,
                             const KernelFn& kernel, Inject inject) {
  if (limits.rlimit_as_bytes > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = limits.rlimit_as_bytes;
    ::setrlimit(RLIMIT_AS, &rl);
  }
  if (limits.rlimit_cpu_seconds > 0.0) {
    rlimit rl{};
    // Soft = ceiling(limit) delivers SIGXCPU (default action: terminate);
    // hard = soft + 1 is the kernel's SIGKILL backstop.
    rl.rlim_cur = static_cast<rlim_t>(std::ceil(limits.rlimit_cpu_seconds));
    if (rl.rlim_cur == 0) rl.rlim_cur = 1;
    rl.rlim_max = rl.rlim_cur + 1;
    ::setrlimit(RLIMIT_CPU, &rl);
  }

  switch (inject) {
    case Inject::Segv:
      // Restore the default disposition first: under ASan the installed
      // SEGV handler would turn the death into a report + exit code, and
      // the crash class under test is "killed by signal".
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      _exit(97);  // unreachable
    case Inject::Oom:
      // Model the kernel OOM killer: an uncatchable SIGKILL, not a polite
      // bad_alloc (RLIMIT_AS produces those; the OOM killer does not).
      ::raise(SIGKILL);
      _exit(97);  // unreachable
    case Inject::Wedge:
      // Non-cooperative: no meter, no cancel poll, no syscall to interrupt.
      // Only the parent's wall-deadline SIGKILL ends this.
      for (volatile std::uint64_t spin = 0;;) spin = spin + 1;
    case Inject::None:
      break;
  }

  jobs::AttemptOutcome out;
  jobs::ErrorClass caught = jobs::ErrorClass::None;
  std::string caught_detail;
  try {
    out = kernel ? kernel(rq, budget) : jobs::run_kernel(rq, budget);
  } catch (const exec::BudgetExceeded& e) {
    out.ok = false;
    out.stop = e.reason();
    out.detail = e.what();
  } catch (const std::bad_alloc&) {
    out.ok = false;
    out.stop = exec::StopReason::AllocFailure;
    out.detail = "allocation failure in isolated child";
  } catch (const std::invalid_argument& e) {
    caught = jobs::ErrorClass::InvalidInput;
    caught_detail = e.what();
  } catch (const std::exception& e) {
    caught = jobs::ErrorClass::Internal;
    caught_detail = e.what();
  } catch (...) {
    caught = jobs::ErrorClass::Internal;
    caught_detail = "non-standard exception in isolated child";
  }

  std::string payload;
  try {
    payload = encode_outcome(out, caught, caught_detail);
  } catch (...) {
    _exit(96);  // encoding must not allocate past RLIMIT_AS and lie about it
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string hdr;  // 4 bytes: fits the small-string buffer, no allocation
  util::put_u32le(hdr, len);
  if (!util::write_all_fd(wfd, hdr.data(), hdr.size()) ||
      !util::write_all_fd(wfd, payload.data(), len))
    _exit(95);
  _exit(0);  // never exit(): no atexit, no stream flush, no leak check
}

/// Parent-side frame reader: poll + read until one complete frame, the
/// deadline, a cancellation, or EOF. Returns true with the payload on a
/// complete frame.
enum class ReadEnd : std::uint8_t { Frame, Eof, Timeout, Cancel, Garbled };

ReadEnd read_frame(int rfd, Clock::time_point deadline, bool has_deadline,
                   const exec::CancelToken* cancel, std::string& payload) {
  std::string buf;
  bool have_len = false;
  std::uint32_t want = 0;
  for (;;) {
    if (cancel && cancel->cancel_requested()) return ReadEnd::Cancel;
    int timeout_ms = 20;  // cancel-poll granularity
    if (has_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return ReadEnd::Timeout;
      timeout_ms = static_cast<int>(
          std::min<std::chrono::milliseconds::rep>(left.count(), 20));
      if (timeout_ms < 1) timeout_ms = 1;
    }
    pollfd pfd{rfd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadEnd::Garbled;
    }
    if (pr == 0) continue;  // re-check deadline/cancel
    char chunk[4096];
    const ssize_t n = ::read(rfd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadEnd::Garbled;
    }
    if (n == 0) return ReadEnd::Eof;  // child died before completing a frame
    buf.append(chunk, static_cast<std::size_t>(n));
    if (!have_len && buf.size() >= 4) {
      want = util::get_u32le(
          reinterpret_cast<const unsigned char*>(buf.data()));
      if (want > kMaxFrameBytes) return ReadEnd::Garbled;
      have_len = true;
    }
    if (have_len && buf.size() >= 4u + want) {
      payload.assign(buf, 4, want);
      return ReadEnd::Frame;
    }
  }
}

/// Reap `pid`, blocking. Only called when the child is dead or dying
/// (frame delivered and child is _exiting, or we already SIGKILLed it).
int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

CrashReport classify_death(int status, bool we_killed, bool cancel_kill) {
  CrashReport cr;
  if (WIFSIGNALED(status)) {
    cr.signal = WTERMSIG(status);
    if (we_killed && cr.signal == SIGKILL) {
      cr.kind = cancel_kill ? CrashKind::Cancelled : CrashKind::WallTimeout;
      cr.detail = cancel_kill
                      ? "isolated child killed: cancellation requested"
                      : "isolated child killed at wall deadline (wedged or "
                        "overlong kernel)";
    } else if (cr.signal == SIGXCPU) {
      cr.kind = CrashKind::CpuLimit;
      cr.detail = "isolated child exceeded RLIMIT_CPU (SIGXCPU)";
    } else if (cr.signal == SIGKILL) {
      cr.kind = CrashKind::OomKill;
      cr.detail = "isolated child killed (OOM killer or external SIGKILL)";
    } else {
      cr.kind = CrashKind::Signal;
      cr.detail = "isolated child killed by signal ";
      cr.detail += std::to_string(cr.signal);
      if (const char* name = ::strsignal(cr.signal)) {
        cr.detail += " (";
        cr.detail += name;
        cr.detail += ")";
      }
    }
    return cr;
  }
  if (WIFEXITED(status)) {
    cr.exit_code = WEXITSTATUS(status);
    cr.kind = CrashKind::ExitNonzero;
    cr.detail = "isolated child exited with status ";
    cr.detail += std::to_string(cr.exit_code);
    cr.detail += " without delivering an outcome";
    return cr;
  }
  cr.kind = CrashKind::Signal;
  cr.detail = "isolated child ended with unrecognized wait status";
  return cr;
}

}  // namespace

const char* to_string(CrashKind k) {
  switch (k) {
    case CrashKind::None: return "none";
    case CrashKind::Signal: return "signal";
    case CrashKind::OomKill: return "oom-kill";
    case CrashKind::CpuLimit: return "cpu-limit";
    case CrashKind::WallTimeout: return "wall-timeout";
    case CrashKind::Cancelled: return "cancelled";
    case CrashKind::ExitNonzero: return "exit-nonzero";
    case CrashKind::PipeError: return "pipe-error";
  }
  return "unknown";
}

jobs::ErrorClass error_class_for(const CrashReport& crash) {
  switch (crash.kind) {
    case CrashKind::None: return jobs::ErrorClass::None;
    case CrashKind::OomKill:
    case CrashKind::CpuLimit:
    case CrashKind::WallTimeout: return jobs::ErrorClass::BudgetExhausted;
    case CrashKind::Cancelled: return jobs::ErrorClass::Cancelled;
    case CrashKind::Signal:
    case CrashKind::ExitNonzero:
    case CrashKind::PipeError: return jobs::ErrorClass::Internal;
  }
  return jobs::ErrorClass::Internal;
}

std::string encode_outcome(const jobs::AttemptOutcome& out,
                           jobs::ErrorClass caught,
                           std::string_view caught_detail) {
  std::string s = "{\"ok\":";
  s += out.ok ? "true" : "false";
  util::append_field(s, "stop", exec::to_string(out.stop));
  util::append_field(s, "detail", out.detail);
  util::append_field(s, "value", out.out.value);
  util::append_field(s, "odetail", out.out.detail);
  util::append_field(s, "degraded", out.out.degraded);
  if (!out.out.degraded_from.empty())
    util::append_field(s, "from", out.out.degraded_from);
  if (!out.out.degraded_to.empty())
    util::append_field(s, "to", out.out.degraded_to);
  if (out.out.has_checkpoint)
    util::append_field(s, "ckpt", out.out.checkpoint.serialize());
  if (caught != jobs::ErrorClass::None) {
    util::append_field(s, "caught", jobs::to_string(caught));
    util::append_field(s, "caught-detail", caught_detail);
  }
  s.push_back('}');
  return s;
}

bool decode_outcome(std::string_view payload, jobs::AttemptOutcome& out,
                    jobs::ErrorClass& caught, std::string& caught_detail) {
  util::JsonCursor c{payload.data(), payload.data() + payload.size()};
  if (!c.eat('{')) return false;
  jobs::AttemptOutcome r;
  jobs::ErrorClass ec = jobs::ErrorClass::None;
  std::string ec_detail;
  bool have_ok = false;
  bool first = true;
  while (true) {
    if (c.eat('}')) break;
    if (!first && !c.eat(',')) return false;
    if (first && c.at_end()) return false;
    first = false;
    std::string key;
    if (!util::parse_json_string(c, key)) return false;
    if (!c.eat(':')) return false;
    if (key == "ok") {
      if (!util::parse_json_bool(c, r.ok)) return false;
      have_ok = true;
    } else if (key == "stop") {
      std::string v;
      if (!util::parse_json_string(c, v)) return false;
      bool known = false;
      for (auto sr : {exec::StopReason::None, exec::StopReason::Deadline,
                      exec::StopReason::NodeCap, exec::StopReason::MemoryCap,
                      exec::StopReason::StepQuota, exec::StopReason::Cancelled,
                      exec::StopReason::AllocFailure}) {
        if (v == exec::to_string(sr)) {
          r.stop = sr;
          known = true;
          break;
        }
      }
      if (!known) return false;
    } else if (key == "detail") {
      if (!util::parse_json_string(c, r.detail)) return false;
    } else if (key == "value") {
      if (!util::number_as(util::number_token(c), r.out.value)) return false;
    } else if (key == "odetail") {
      if (!util::parse_json_string(c, r.out.detail)) return false;
    } else if (key == "degraded") {
      if (!util::parse_json_bool(c, r.out.degraded)) return false;
    } else if (key == "from") {
      if (!util::parse_json_string(c, r.out.degraded_from)) return false;
    } else if (key == "to") {
      if (!util::parse_json_string(c, r.out.degraded_to)) return false;
    } else if (key == "ckpt") {
      std::string v;
      if (!util::parse_json_string(c, v)) return false;
      if (!core::MonteCarloCheckpoint::parse(v, r.out.checkpoint))
        return false;
      r.out.has_checkpoint = true;
    } else if (key == "caught") {
      std::string v;
      if (!util::parse_json_string(c, v)) return false;
      if (!jobs::parse_error_class(v, ec)) return false;
    } else if (key == "caught-detail") {
      if (!util::parse_json_string(c, ec_detail)) return false;
    } else {
      return false;  // the codec is closed: both ends are this file
    }
  }
  if (!util::only_trailing_ws(c) || !have_ok) return false;
  out = std::move(r);
  caught = ec;
  caught_detail = std::move(ec_detail);
  return true;
}

RunResult run_isolated(const jobs::KernelRequest& rq,
                       const exec::Budget& budget, const Limits& limits,
                       const KernelFn& kernel,
                       const exec::CancelToken* cancel) {
  RunResult result;
  const Inject inject = claim_injected_fault();

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    result.crash.kind = CrashKind::PipeError;
    result.crash.detail = "pipe() failed: ";
    result.crash.detail += std::strerror(errno);
    return result;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    result.crash.kind = CrashKind::PipeError;
    result.crash.detail = "fork() failed: ";
    result.crash.detail += std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    ::close(pipefd[0]);
    child_main(pipefd[1], rq, budget, limits, kernel, inject);
  }
  ::close(pipefd[1]);

  const bool has_deadline = limits.wall_deadline_seconds > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             has_deadline ? limits.wall_deadline_seconds : 0));

  std::string payload;
  const ReadEnd end =
      read_frame(pipefd[0], deadline, has_deadline, cancel, payload);
  ::close(pipefd[0]);

  bool we_killed = false;
  bool cancel_kill = false;
  if (end == ReadEnd::Timeout || end == ReadEnd::Cancel ||
      end == ReadEnd::Garbled) {
    ::kill(pid, SIGKILL);
    we_killed = (end != ReadEnd::Garbled);
    cancel_kill = (end == ReadEnd::Cancel);
  }
  const int status = reap(pid);

  if (end == ReadEnd::Frame) {
    if (decode_outcome(payload, result.outcome, result.caught,
                       result.caught_detail)) {
      result.delivered = true;
      return result;
    }
    result.crash.kind = CrashKind::PipeError;
    result.crash.detail = "isolated child delivered an undecodable frame";
    return result;
  }
  if (end == ReadEnd::Garbled) {
    result.crash.kind = CrashKind::PipeError;
    result.crash.detail =
        "isolated child frame protocol violation (oversized or torn frame)";
    return result;
  }
  result.crash = classify_death(status, we_killed, cancel_kill);
  return result;
}

jobs::AttemptOutcome run_kernel_isolated(const jobs::KernelRequest& rq,
                                         const exec::Budget& budget,
                                         Limits limits) {
  if (limits.wall_deadline_seconds <= 0.0 && budget.deadline_seconds > 0.0)
    limits.wall_deadline_seconds = budget.deadline_seconds * 1.25 + 0.05;
  const RunResult r =
      run_isolated(rq, budget, limits, {}, &budget.cancel);
  if (r.delivered) {
    if (r.caught == jobs::ErrorClass::InvalidInput)
      throw std::invalid_argument(r.caught_detail);
    if (r.caught != jobs::ErrorClass::None)
      throw std::runtime_error(r.caught_detail);
    return r.outcome;
  }
  switch (error_class_for(r.crash)) {
    case jobs::ErrorClass::BudgetExhausted: {
      jobs::AttemptOutcome out;
      out.ok = false;
      out.stop = r.crash.kind == CrashKind::OomKill
                     ? exec::StopReason::AllocFailure
                     : exec::StopReason::Deadline;
      out.detail = r.crash.detail;
      return out;
    }
    case jobs::ErrorClass::Cancelled: {
      jobs::AttemptOutcome out;
      out.ok = false;
      out.stop = exec::StopReason::Cancelled;
      out.detail = r.crash.detail;
      return out;
    }
    default:
      throw std::runtime_error(r.crash.detail);
  }
}

}  // namespace hlp::sandbox
