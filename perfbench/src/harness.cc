#include "harness.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

void Outcome::Check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  std::fflush(stdout);
  if (!ok) correct = false;
}

void Outcome::SelfTest(bool rejected, const std::string& what) {
  std::printf("selftest %-55s %s\n", what.c_str(),
              rejected ? "rejected" : "NOT REJECTED");
  std::fflush(stdout);
  if (!rejected) correct = false;
}

void Outcome::Note(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  layers_.reserve(64);
  if (enabled_) spans_.reserve(1u << 20);
}

Tracer::Layer* Tracer::layer(const char* name) {
  for (Layer& existing : layers_) {
    if (std::strcmp(existing.name, name) == 0) return &existing;
  }
  // Reserved up front, so returned pointers stay valid.
  if (layers_.size() == layers_.capacity()) std::abort();
  layers_.push_back(Layer{name});
  return &layers_.back();
}

double Tracer::End(Layer* layer, std::uint64_t start_ns, std::uint64_t round,
                   std::uint32_t tid) {
  const std::uint64_t dur = Now() - start_ns;
  const double us = static_cast<double>(dur) * 1e-3;
  layer->sum_us += us;
  ++layer->count;
  if (spans_.size() < spans_.capacity()) {
    spans_.push_back(Span{layer->name, start_ns, dur, round, tid});
  }
  return us;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* dot = std::strchr(span.name, '.');
    const std::string cat =
        dot == nullptr ? std::string(span.name)
                       : std::string(span.name, dot - span.name);
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%llu}}",
                 i == 0 ? "" : ",", span.name, cat.c_str(), span.tid,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.dur_ns) * 1e-3,
                 static_cast<unsigned long long>(span.round));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Cleanup registry

namespace cleanup {
namespace {

constexpr int kMaxEntries = 16;
constexpr int kMaxPath = 512;

pid_t g_children[kMaxEntries];
std::atomic<int> g_child_count{0};
char g_files[kMaxEntries][kMaxPath];
std::atomic<int> g_file_count{0};
char g_dirs[kMaxEntries][kMaxPath];
std::atomic<int> g_dir_count{0};
std::atomic<bool> g_ran{false};

void SleepMs(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

/// Async-signal-safe: kill, waitpid and nanosleep only.
int StopAndReap(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, WNOHANG) == pid) return status;
  kill(pid, SIGTERM);
  for (int i = 0; i < 200; ++i) {  // 2 s grace for the daemon's drain
    if (waitpid(pid, &status, WNOHANG) == pid) return status;
    SleepMs(10);
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return status;
}

void WriteStderr(const char* text) {
  ssize_t ignored = write(STDERR_FILENO, text, std::strlen(text));
  (void)ignored;
}

void HandleSignal(int signum) {
  WriteStderr(signum == SIGALRM ? "perfbench: run deadline reached, cleaning up\n"
                                : "perfbench: signal received, cleaning up\n");
  RunAll();
  _exit(128 + signum);
}

void CopyPath(char (&slot)[kMaxPath], const std::string& path) {
  const std::size_t n = std::min<std::size_t>(path.size(), kMaxPath - 1);
  std::memcpy(slot, path.data(), n);
  slot[n] = '\0';
}

}  // namespace

void Install(unsigned deadline_seconds) {
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGALRM, &action, nullptr);
  sigaction(SIGABRT, &action, nullptr);  // a failed FEDREC_CHECK
  // A shardd that dies mid-run must not kill the driver on its next write.
  signal(SIGPIPE, SIG_IGN);
  alarm(deadline_seconds);
  std::atexit(RunAll);
}

void AddChild(pid_t pid) {
  const int i = g_child_count.load();
  if (i >= kMaxEntries) return;
  g_children[i] = pid;
  g_child_count.store(i + 1);
}

int StopChild(pid_t pid) {
  const int n = g_child_count.load();
  for (int i = 0; i < n; ++i) {
    if (g_children[i] == pid) {
      g_children[i] = -1;
      return StopAndReap(pid);
    }
  }
  return StopAndReap(pid);
}

void AddFile(const std::string& path) {
  const int i = g_file_count.load();
  if (i >= kMaxEntries) return;
  CopyPath(g_files[i], path);
  g_file_count.store(i + 1);
}

void AddDir(const std::string& path) {
  const int i = g_dir_count.load();
  if (i >= kMaxEntries) return;
  CopyPath(g_dirs[i], path);
  g_dir_count.store(i + 1);
}

void RunAll() {
  if (g_ran.exchange(true)) return;
  for (int i = 0; i < g_child_count.load(); ++i) {
    if (g_children[i] > 0) StopAndReap(g_children[i]);
    g_children[i] = -1;
  }
  for (int i = 0; i < g_file_count.load(); ++i) unlink(g_files[i]);
  // Newest first: nested directories were registered after their parent.
  for (int i = g_dir_count.load() - 1; i >= 0; --i) rmdir(g_dirs[i]);
}

}  // namespace cleanup

std::string MakeScratchDir(const std::string& tag) {
  mkdir(".bench_out", 0755);
  std::string pattern = ".bench_out/" + tag + "-XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (mkdtemp(buffer.data()) == nullptr) return "";
  const std::string dir(buffer.data());
  cleanup::AddDir(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Statistics and host

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ChildPeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Fixed integer loop; the result feeds an atomic sink so it is not elided.
std::uint64_t ComputeLoop(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < 30000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x9E3779B97F4A7C15ull;
  }
  return acc;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void PrintHostLine(std::size_t threads) {
  std::atomic<std::uint64_t> sink{0};
  const double t0 = NowSeconds();
  sink += ComputeLoop(1);
  const double one = NowSeconds() - t0;
  std::vector<std::thread> workers;
  const double t1 = NowSeconds();
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&sink, i] { sink += ComputeLoop(i + 2); });
  }
  for (std::thread& worker : workers) worker.join();
  const double many = NowSeconds() - t1;
  const double speedup = static_cast<double>(threads) * one / many;
  std::printf(
      "host nproc=%u cpu=\"%s\" build=%s threads=%zu "
      "loop_speedup=%.2fx (fixed loop, %zu threads vs 1; sink %llu)\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      PERFBENCH_BUILD_TYPE, threads, speedup, threads,
      static_cast<unsigned long long>(sink.load() & 0xff));
  std::fflush(stdout);
}

}  // namespace perfbench
