#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file
/// Shared machinery of the benchmark driver: the run's options and outcome,
/// the in-memory span recorder of traced mode, the cleanup registry that
/// every exit path (normal, failed check, timeout, SIGTERM) runs, and small
/// statistics helpers.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< nproc: pool size and connection cap
};

/// What a workload reports besides its metrics: operations and checks.
/// `correct` turns false on the first failed check or on a self-test
/// perturbation that a check did not reject.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records one correctness check; prints its verdict.
  void Check(bool ok, const std::string& what);
  /// Records one self-test: `rejected` is whether the check refused a
  /// deliberately perturbed input. A perturbation that passes is a check
  /// that cannot fail, so it makes the run incorrect.
  void SelfTest(bool rejected, const std::string& what);
  /// Prints a line that is not a metric (sample counts, ledgers).
  static void Note(const std::string& text);
};

/// Seconds on the steady clock since the process started (static init).
double SinceStart();
double NowSeconds();

/// In-memory span recorder of traced mode. Spans are kept in a preallocated
/// vector and written as a Chrome trace at the end; each span also feeds its
/// layer's running sum so per-layer means need no second pass.
class Tracer {
 public:
  struct Layer {
    const char* name;
    double sum_us = 0.0;
    std::uint64_t count = 0;
    double MeanUs() const { return count == 0 ? 0.0 : sum_us / count; }
  };
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t round;
    std::uint32_t tid;
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  /// Registers a layer by name and returns its slot (call at setup).
  Layer* layer(const char* name);
  static std::uint64_t Now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  /// Closes a span opened at `start_ns` (from Now()); returns its length in
  /// microseconds.
  double End(Layer* layer, std::uint64_t start_ns, std::uint64_t round,
             std::uint32_t tid = 0);
  /// Writes every recorded span as Chrome trace JSON.
  bool WriteChromeTrace(const std::string& path) const;
  std::size_t span_count() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Layer> layers_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Tracer::Layer* layer, std::uint64_t round,
             std::uint32_t tid = 0)
      : tracer_(tracer), layer_(layer), round_(round), tid_(tid),
        start_(tracer.enabled() ? Tracer::Now() : 0) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) tracer_.End(layer_, start_, round_, tid_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Tracer::Layer* layer_;
  std::uint64_t round_;
  std::uint32_t tid_;
  std::uint64_t start_;
};

/// Process-wide cleanup registry. Child pids are terminated and reaped and
/// registered files and directories removed on every exit path; the
/// signal handlers (SIGTERM, SIGINT, SIGALRM for the run deadline, SIGABRT
/// for a failed FEDREC_CHECK) use only async-signal-safe calls on
/// fixed-size tables.
namespace cleanup {
/// Installs the signal handlers and arms the run deadline (alarm).
void Install(unsigned deadline_seconds);
void AddChild(pid_t pid);
/// Stops and reaps one registered child (SIGTERM, then SIGKILL after a
/// grace period); returns its exit status as waitpid reports it.
int StopChild(pid_t pid);
void AddFile(const std::string& path);
void AddDir(const std::string& path);
/// Runs every registered action once (idempotent).
void RunAll();
}  // namespace cleanup

/// Creates `.bench_out/` under the working directory (the checkout) and a
/// fresh private directory inside it, registered for removal.
std::string MakeScratchDir(const std::string& tag);

/// Timed figures are read at the fast decile of many equal units of work
/// (epochs, batches of rounds, evaluation passes): the 10th percentile of a
/// time, the 90th of a rate. Interference from outside the run (CPU steal on
/// a shared host, other tenants) only ever slows a unit down, and measured
/// on a shared 4-vCPU VM it moved medians by 10-30% from run to run while
/// the fast decile moved by a few percent. A change that slows every unit
/// still moves the fast decile.
inline constexpr double kFastDecile = 10.0;

/// Median of `values` (copied; 0 for an empty input).
double Median(std::vector<double> values);
/// Nearest-rank percentile, `q` in [0, 100].
double Percentile(std::vector<double> values, double q);

/// Peak resident set of this process in MB (getrusage).
double SelfPeakRssMb();
/// Peak resident set of a live child in MB (VmHWM of /proc/<pid>/status).
double ChildPeakRssMb(pid_t pid);

/// Prints the host line: nproc, CPU model, build type, thread count and the
/// measured speedup of a fixed compute loop at `threads` over one thread.
void PrintHostLine(std::size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
