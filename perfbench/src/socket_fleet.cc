/// The `socket_fleet` workload: a FederationService coordinator over a
/// SocketShardTransport to two fedrec_shardd processes, fed by a closed
/// loop of synthetic clients multiplexed over at most nproc TCP
/// connections. Each client sends one FRWU upload per round and sends the
/// next only after its kRoundAck, so every round holds exactly one upload
/// per client.
///
/// Traced mode serves the first half of the window the same way (for the
/// mean round time), then replays the same rounds through the layers' public
/// calls (EncodeUpload, DecodeUpload, RouteRound, ExecuteShardRound against
/// the same fleet, MergeReceived, ApplySparseGradient) under spans.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "checks.h"
#include "common/threadpool.h"
#include "data/synthetic.h"
#include "model/metrics.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "shard/federation_service.h"
#include "shard/shard_plan.h"
#include "shard/socket_transport.h"
#include "shard/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fedrec;

constexpr std::size_t kClients = 64;
constexpr std::size_t kShards = 2;
constexpr std::size_t kPoolSize = 1024;
constexpr std::size_t kMaliciousEvery = 20;  // rho = 5% of uploads
constexpr std::size_t kKappa = 60;
constexpr std::size_t kDim = 32;
constexpr float kLearningRate = 0.01f;
constexpr std::size_t kBatchRounds = 16;  // 1024 uploads per batch

/// One spawned fedrec_shardd and the pipe its stdout is read from.
struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;
  std::string output;
};

/// Reads from `fd` into `buffer` until `needle` appears or `timeout_ms`
/// passes; returns false on timeout or EOF.
bool ReadUntil(int fd, std::string& buffer, const char* needle,
               int timeout_ms) {
  const double deadline = NowSeconds() + timeout_ms * 1e-3;
  while (buffer.find(needle) == std::string::npos) {
    const int left = static_cast<int>((deadline - NowSeconds()) * 1e3);
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, left) <= 0) continue;
    char chunk[512];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

/// Starts `fedrec_shardd --shard=<s> --port=0` and learns its port from the
/// `listening on <port>` line. The child dies with the driver (PDEATHSIG),
/// so it cannot outlive even a SIGKILLed run.
Daemon SpawnShardd(std::size_t shard) {
  int fds[2];
  FEDREC_CHECK(pipe(fds) == 0) << "pipe failed";
  const pid_t parent = getpid();
  const std::string shard_flag = "--shard=" + std::to_string(shard);
  const pid_t pid = fork();
  FEDREC_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(1);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl(PERFBENCH_SHARDD, PERFBENCH_SHARDD, shard_flag.c_str(), "--port=0",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  cleanup::AddChild(pid);
  close(fds[1]);
  Daemon daemon;
  daemon.pid = pid;
  daemon.out_fd = fds[0];
  FEDREC_CHECK(ReadUntil(daemon.out_fd, daemon.output, "listening on ", 10000))
      << "fedrec_shardd did not report its port";
  const std::size_t at = daemon.output.find("listening on ");
  FEDREC_CHECK(ReadUntil(daemon.out_fd, daemon.output, "\n", 10000));
  daemon.port = static_cast<std::uint16_t>(
      std::strtoul(daemon.output.c_str() + at + 13, nullptr, 10));
  FEDREC_CHECK(daemon.port != 0) << "bad port line: " << daemon.output;
  return daemon;
}

/// Stops the daemon (SIGTERM: it drains and prints its ledger), reaps it and
/// returns how many rounds it reported serving (-1 on an unclean exit).
long StopShardd(Daemon& daemon) {
  const int status = cleanup::StopChild(daemon.pid);
  ReadUntil(daemon.out_fd, daemon.output, "drain deferrals", 2000);
  close(daemon.out_fd);
  daemon.out_fd = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  const std::size_t at = daemon.output.find("served ");
  if (at == std::string::npos) return -1;
  return std::strtol(daemon.output.c_str() + at + 7, nullptr, 10);
}

/// A random row with L2 norm uniform in (0, 1]: the shape of a client's
/// clipped gradient row (C = 1).
void FillRow(std::span<float> row, Rng& rng) {
  double norm = 0.0;
  for (float& v : row) {
    v = static_cast<float>(rng.NextGaussian());
    norm += static_cast<double>(v) * v;
  }
  const double scale = (1.0 - rng.NextDouble()) / std::sqrt(norm);
  for (float& v : row) v = static_cast<float>(v * scale);
}

/// The upload pool. Benign uploads follow a user's activity: its positives
/// plus as many sampled negatives, as a BPR client uploads. Every 20th is
/// malicious-shaped: kappa rows, one of them the target row.
std::vector<SparseRowMatrix> MakeUploadPool(const Dataset& train,
                                            std::uint32_t target,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> direction(kDim);
  FillRow(direction, rng);
  std::vector<SparseRowMatrix> pool;
  pool.reserve(kPoolSize);
  const std::size_t num_items = train.num_items();
  for (std::size_t p = 0; p < kPoolSize; ++p) {
    SparseRowMatrix upload(kDim);
    if (p % kMaliciousEvery == kMaliciousEvery - 1) {
      auto row = upload.RowMutable(target);
      double norm = 0.0;
      for (float v : direction) norm += static_cast<double>(v) * v;
      for (std::size_t d = 0; d < kDim; ++d) {
        row[d] = static_cast<float>(direction[d] / std::sqrt(norm));
      }
      while (upload.row_count() < kKappa) {
        const std::size_t item = rng.NextBounded(num_items);
        if (!upload.Contains(item)) FillRow(upload.RowMutable(item), rng);
      }
    } else {
      const auto& positives =
          train.UserItems(static_cast<std::size_t>(rng.NextBounded(train.num_users())));
      for (std::uint32_t item : positives) FillRow(upload.RowMutable(item), rng);
      const std::size_t want = std::min(2 * positives.size(), num_items);
      while (upload.row_count() < want) {
        const std::size_t item = rng.NextBounded(num_items);
        if (!upload.Contains(item)) FillRow(upload.RowMutable(item), rng);
      }
    }
    pool.push_back(std::move(upload));
  }
  return pool;
}

UploadCopy CopyOf(const SparseRowMatrix& upload) {
  UploadCopy copy;
  copy.rows = upload.row_ids();
  for (std::size_t slot = 0; slot < copy.rows.size(); ++slot) {
    const auto row = upload.RowAtSlot(slot);
    copy.values.insert(copy.values.end(), row.begin(), row.end());
  }
  return copy;
}

std::size_t PoolIndex(std::uint64_t round, std::size_t client) {
  return static_cast<std::size_t>((round * kClients + client) % kPoolSize);
}

/// Client side of the closed loop: connections, their in-flight FIFOs and
/// the ledgers the checks read.
class ClientFleet {
 public:
  ClientFleet(std::uint16_t port, std::size_t connections,
              const std::vector<std::string>* encoded)
      : encoded_(encoded), conns_(connections), sent_(kClients, 0),
        send_time_(kClients, 0.0) {
    for (std::size_t c = 0; c < connections; ++c) {
      Result<int> fd = TcpConnect("127.0.0.1", port);
      fd.status().CheckOK();
      conns_[c].fd = fd.value();
      SetNonBlocking(conns_[c].fd).CheckOK();
      loop_.Watch(conns_[c].fd, EPOLLIN, c).CheckOK();
    }
  }
  ~ClientFleet() {
    for (Conn& conn : conns_) CloseSocket(conn.fd);
  }
  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Runs rounds until, at the first ack of a round, `keep_going()` says
  /// stop; the clients of that round then send no further upload. Returns false on
  /// a stall, a refused upload or a foreign frame (recorded in `failure`).
  template <typename KeepGoing>
  bool Serve(KeepGoing keep_going, bool record_latency) {
    for (std::size_t client = 0; client < kClients; ++client) Send(client);
    std::size_t outstanding = kClients;
    while (outstanding > 0) {
      const std::span<const epoll_event> events = loop_.Wait(10000);
      if (events.empty()) {
        failure = "stalled: no ack for 10 s";
        return false;
      }
      for (const epoll_event& event : events) {
        Conn& conn = conns_[event.data.u64];
        if ((event.events & EPOLLOUT) != 0 && !Flush(conn, event.data.u64)) {
          return false;
        }
        if ((event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
        for (;;) {
          char* tail = conn.reader.PrepareWrite(1 << 16);
          ReadOutcome outcome;
          if (!ReadSome(conn.fd, tail, conn.reader.writable(), outcome).ok() ||
              outcome.eof) {
            failure = "coordinator closed a client connection";
            return false;
          }
          conn.reader.CommitWrite(outcome.bytes);
          if (outcome.would_block) break;
        }
        for (;;) {
          FrameView frame;
          bool has_frame = false;
          if (!conn.reader.Next(frame, has_frame).ok()) {
            failure = "unparseable frame from the coordinator";
            return false;
          }
          if (!has_frame) break;
          if (frame.type != FrameType::kRoundAck || conn.in_flight.empty()) {
            ++refused;
            failure = "upload drew frame type " +
                      std::to_string(static_cast<int>(frame.type));
            return false;
          }
          const double now = NowSeconds();
          const std::uint32_t client = conn.in_flight.front();
          conn.in_flight.pop_front();
          BinaryReader reader = BinaryReader::View(frame.payload);
          Result<std::uint64_t> round = reader.ReadU64();
          if (!round.ok()) {
            failure = "ack without a round id";
            return false;
          }
          acks.push_back({client, round.value()});
          if (record_latency) latency_ms.push_back((now - send_time_[client]) * 1e3);
          if (round.value() != acking_round_) {
            // First ack of a round: the whole round's clients follow one
            // decision, so every run ends on a round boundary.
            acking_round_ = round.value();
            acked_in_round_ = 0;
            go_ = keep_going();
          }
          if (++acked_in_round_ == kClients && record_latency) {
            round_done.push_back(now);
          }
          if (go_) {
            Send(client);
          } else {
            --outstanding;
          }
        }
      }
    }
    return true;
  }

  std::uint64_t rounds_sent() const { return sent_[0]; }
  const std::vector<std::uint64_t>& sent_per_client() const { return sent_; }
  std::uint64_t uploads_sent() const {
    std::uint64_t total = 0;
    for (std::uint64_t n : sent_) total += n;
    return total;
  }

  std::vector<AckRecord> acks;
  std::vector<double> latency_ms;  ///< timed uploads, in round order
  std::vector<double> round_done;  ///< when each timed round's last ack came
  std::uint64_t refused = 0;
  std::string failure;

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    SendQueue out;
    bool out_armed = false;
    std::deque<std::uint32_t> in_flight;
  };

  void Send(std::size_t client) {
    Conn& conn = conns_[client % conns_.size()];
    const std::string& upload = (*encoded_)[PoolIndex(sent_[client], client)];
    const std::array<std::string_view, 1> pieces = {std::string_view(upload)};
    conn.out.AppendFrame(FrameType::kClientUpload, pieces);
    conn.in_flight.push_back(static_cast<std::uint32_t>(client));
    send_time_[client] = NowSeconds();
    ++sent_[client];
    Flush(conn, client % conns_.size());
  }

  bool Flush(Conn& conn, std::size_t index) {
    bool blocked = false;
    if (!conn.out.Flush(conn.fd, blocked).ok()) {
      failure = "client write failed";
      return false;
    }
    if (blocked != conn.out_armed) {
      const std::uint32_t events =
          blocked ? (EPOLLIN | EPOLLOUT) : static_cast<std::uint32_t>(EPOLLIN);
      loop_.Modify(conn.fd, events, index).CheckOK();
      conn.out_armed = blocked;
    }
    return true;
  }

  const std::vector<std::string>* encoded_;
  EpollLoop loop_;
  std::vector<Conn> conns_;
  std::vector<std::uint64_t> sent_;
  std::vector<double> send_time_;
  std::uint64_t acking_round_ = ~std::uint64_t{0};
  std::size_t acked_in_round_ = 0;
  bool go_ = true;
};

/// The service counters the checks compare against the client side.
bool CountsMatch(const FederationService::Stats& stats, std::uint64_t rounds,
                 std::uint64_t uploads) {
  return stats.rounds_completed == rounds && stats.uploads_received == uploads;
}
bool NoDegradation(const FederationService::Stats& stats) {
  return stats.rejected_uploads == 0 && stats.shard_outages == 0 &&
         stats.shard_retries == 0 && stats.fallback_shards == 0 &&
         stats.retry_afters_sent == 0 && stats.shed_frames == 0;
}

}  // namespace

void RunSocketFleet(const RunOptions& options, Outcome& outcome,
                    Values& values) {
  Tracer tracer(options.trace);
  Tracer::Layer* l_generate = tracer.layer("data.generate");
  Tracer::Layer* l_split = tracer.layer("data.split");
  Tracer::Layer* l_encode = tracer.layer("wire.encode");
  Tracer::Layer* l_decode = tracer.layer("wire.decode");
  Tracer::Layer* l_route = tracer.layer("shard.route");
  Tracer::Layer* l_exchange = tracer.layer("shard.exchange");
  Tracer::Layer* l_merge = tracer.layer("shard.merge");
  Tracer::Layer* l_apply = tracer.layer("fleet.apply");
  Tracer::Layer* l_eval_er = tracer.layer("model.eval_er");
  const std::uint64_t seed = options.seed;

  // -- Set-up: inputs, fleet, coordinator, connections, encoded uploads ------
  std::uint64_t start = Tracer::Now();
  Result<Dataset> data = GenerateByName("steam-200k", seed, 1.0);
  data.status().CheckOK();
  values["data.generate_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l_generate, start, 0);
  start = Tracer::Now();
  Rng split_rng(seed + 1);
  const LeaveOneOutSplit split = SplitLeaveOneOut(data.value(), split_rng);
  values["data.split_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l_split, start, 0);
  const Dataset& train = split.train;
  const std::size_t num_items = train.num_items();
  Rng target_rng(seed + 2);
  const std::uint32_t target = static_cast<std::uint32_t>(
      target_rng.NextBounded(num_items));

  std::vector<Daemon> daemons;
  for (std::size_t s = 0; s < kShards; ++s) daemons.push_back(SpawnShardd(s));

  const ShardPlan plan(num_items, kShards, ShardPolicy::kContiguousRange);
  SocketShardTransport::Options transport_options;
  for (const Daemon& daemon : daemons) {
    ShardEndpoint endpoint;
    endpoint.port = daemon.port;
    transport_options.endpoints.push_back(endpoint);
  }
  transport_options.run_fingerprint = seed * 0x9E3779B97F4A7C15ull + 1;
  SocketShardTransport transport(plan, kDim, transport_options);

  MfHyperParams params;
  params.dim = kDim;
  params.learning_rate = kLearningRate;
  Rng model_rng(seed + 3);
  MfModel model(num_items, params, model_rng);
  const Matrix initial = model.item_factors();

  FederationService::Options service_options;
  service_options.round_size = kClients;
  service_options.aggregator.kind = AggregatorKind::kSum;
  service_options.learning_rate = kLearningRate;
  FederationService service(&model, &transport, service_options);
  service.Listen().CheckOK();
  std::thread service_thread([&service] { service.Run(); });

  const std::vector<SparseRowMatrix> pool =
      MakeUploadPool(train, target, seed + 4);
  std::vector<std::string> encoded;
  encoded.reserve(pool.size());
  BinaryWriter writer;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    writer.Clear();
    EncodeUpload(pool[p], p, writer);
    encoded.push_back(writer.buffer());
  }
  const std::size_t connections = std::min(options.threads, kClients);
  ClientFleet fleet(service.port(), connections, &encoded);

  // One warm-up round connects the shard links and runs the hellos.
  bool served = fleet.Serve([] { return false; }, /*record_latency=*/false);
  values["setup_s"] = SinceStart();

  // -- Timed window ------------------------------------------------------------
  const double serve_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const double window_start = NowSeconds();
  const std::uint64_t warmup_rounds = fleet.rounds_sent();
  // Peak RSS, the daemons' included, is read after a fixed number of rounds
  // (and the window always serves at least that many), so a build that
  // serves more rounds is not charged for its longer per-upload ledgers.
  constexpr std::size_t kFixedWorkRounds = 1024;
  double fleet_rss_mb = 0.0;
  if (served) {
    served = fleet.Serve(
        [&] {
          if (fleet.round_done.size() == kFixedWorkRounds) {
            fleet_rss_mb = SelfPeakRssMb();
            for (const Daemon& daemon : daemons) {
              fleet_rss_mb += ChildPeakRssMb(daemon.pid);
            }
          }
          return NowSeconds() - window_start < serve_seconds ||
                 fleet.round_done.size() < kFixedWorkRounds;
        },
        /*record_latency=*/true);
  }
  const double window = NowSeconds() - window_start;
  const std::uint64_t timed_rounds = fleet.rounds_sent() - warmup_rounds;
  outcome.attempted = fleet.uploads_sent();
  outcome.failed = fleet.refused;

  // -- Traced replay of the same rounds through the layers' public calls ----
  std::uint64_t replay_rounds = 0;
  double exchange_slowest_us = 0.0;
  double exchange_sum_us = 0.0;
  double upload_bytes = 0.0;
  double wire_bytes = 0.0;
  bool replay_ok = true;
  if (options.trace && served) {
    SocketShardTransport replay_transport(plan, kDim, transport_options);
    ShardServer& server = replay_transport.server();
    Rng replay_rng(seed + 3);
    MfModel replay_model(num_items, params, replay_rng);
    std::vector<ClientUpdate> updates(kClients);
    SparseRoundDelta merged;
    BinaryWriter delta_writer;
    const double replay_start = NowSeconds();
    while (replay_ok && NowSeconds() - replay_start < options.seconds / 2) {
      const std::uint64_t round = replay_rounds;
      for (std::size_t i = 0; i < kClients; ++i) {
        const SparseRowMatrix& upload = pool[PoolIndex(round, i)];
        {
          ScopedSpan span(tracer, l_encode, round);
          writer.Clear();
          EncodeUpload(upload, i, writer);
        }
        upload_bytes += static_cast<double>(writer.buffer().size());
        ScopedSpan span(tracer, l_decode, round);
        BinaryReader reader = BinaryReader::View(writer.buffer());
        replay_ok = replay_ok &&
                    DecodeUpload(reader, updates[i].item_gradients).ok();
      }
      {
        ScopedSpan span(tracer, l_route, round);
        server.RouteRound(updates, nullptr);
      }
      double slowest = 0.0;
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::uint64_t t0 = Tracer::Now();
        replay_ok = replay_ok &&
                    replay_transport
                        .ExecuteShardRound(s, service_options.aggregator,
                                           kClients, 0, round, 0)
                        .ok();
        const double us = tracer.End(l_exchange, t0, round, 1 + s);
        slowest = std::max(slowest, us);
        exchange_sum_us += us;
      }
      exchange_slowest_us += slowest;
      for (std::size_t s = 0; s < kShards; ++s) {
        wire_bytes += static_cast<double>(server.inbox(s).buffer().size());
      }
      {
        ScopedSpan span(tracer, l_merge, round);
        replay_ok = replay_ok && server.MergeReceived(merged).ok();
      }
      {
        ScopedSpan span(tracer, l_apply, round);
        replay_model.ApplySparseGradient(merged, kLearningRate);
      }
      delta_writer.Clear();
      EncodeDelta(merged, delta_writer);
      wire_bytes += static_cast<double>(delta_writer.buffer().size());
      ++replay_rounds;
    }
  }

  // -- Stop the coordinator and the fleet --------------------------------------
  service.RequestStop();
  service_thread.join();
  std::vector<long> shard_rounds;
  for (Daemon& daemon : daemons) shard_rounds.push_back(StopShardd(daemon));

  const std::uint64_t total_rounds = fleet.rounds_sent();
  const FederationService::Stats stats = service.stats();
  char line[320];
  std::snprintf(line, sizeof(line),
                "uploads attempted %llu, acked %zu, refused %llu; rounds %llu "
                "(%llu timed); shard outages %llu, retries %llu, fallbacks %llu,"
                " rejected %llu",
                static_cast<unsigned long long>(fleet.uploads_sent()),
                fleet.acks.size(),
                static_cast<unsigned long long>(fleet.refused),
                static_cast<unsigned long long>(total_rounds),
                static_cast<unsigned long long>(timed_rounds),
                static_cast<unsigned long long>(stats.shard_outages),
                static_cast<unsigned long long>(stats.shard_retries),
                static_cast<unsigned long long>(stats.fallback_shards),
                static_cast<unsigned long long>(stats.rejected_uploads));
  Outcome::Note(line);

  // -- Checks -----------------------------------------------------------------
  outcome.Check(served, "closed loop ran to its end" +
                            (fleet.failure.empty() ? std::string()
                                                   : " (" + fleet.failure + ")"));
  std::string why;
  outcome.Check(CheckAckLedger(fleet.acks, fleet.sent_per_client(), &why),
                "every upload acked exactly once with its round id" +
                    (why.empty() ? "" : " (" + why + ")"));
  if (!fleet.acks.empty()) {
    std::vector<AckRecord> duplicated = fleet.acks;
    duplicated.push_back(duplicated.back());
    outcome.SelfTest(!CheckAckLedger(duplicated, fleet.sent_per_client(), nullptr),
                     "ack ledger with one ack duplicated");
  }
  outcome.Check(CountsMatch(stats, total_rounds, fleet.uploads_sent()),
                "service rounds_completed and uploads_received match clients");
  outcome.SelfTest(!CountsMatch(stats, total_rounds, fleet.uploads_sent() - 1),
                   "service counters against one upload fewer");
  outcome.Check(NoDegradation(stats),
                "zero rejections, shard outages, retries and fallbacks");
  FederationService::Stats degraded = stats;
  ++degraded.shard_outages;
  outcome.SelfTest(!NoDegradation(degraded), "degradation check with one outage");
  bool shards_clean = true;
  for (long n : shard_rounds) {
    shards_clean = shards_clean &&
                   n == static_cast<long>(total_rounds + replay_rounds);
  }
  outcome.Check(shards_clean, "each fedrec_shardd exited 0 after serving " +
                                  std::to_string(total_rounds + replay_rounds) +
                                  " rounds");
  if (options.trace) outcome.Check(replay_ok, "traced replay rounds all OK");

  std::vector<UploadCopy> copies;
  copies.reserve(pool.size());
  for (const SparseRowMatrix& upload : pool) copies.push_back(CopyOf(upload));
  std::vector<std::vector<std::uint32_t>> rounds(total_rounds);
  for (std::uint64_t r = 0; r < total_rounds; ++r) {
    for (std::size_t i = 0; i < kClients; ++i) {
      rounds[r].push_back(static_cast<std::uint32_t>(PoolIndex(r, i)));
    }
  }
  const ConservationModel replay =
      ReplaySumRounds(initial, copies, rounds, kLearningRate);
  why.clear();
  outcome.Check(CheckConservation(replay, initial, model.item_factors(), &why),
                "final model = initial - lr x sum of acked uploads" +
                    (why.empty() ? "" : " (" + why + ")"));
  outcome.SelfTest(
      !CheckConservation(DropOneUpload(replay, copies[PoolIndex(0, 0)],
                                       kLearningRate),
                         initial, model.item_factors(), nullptr),
      "conservation with one acked upload dropped");

  // -- Evaluation of the served model ----------------------------------------
  // The fleet trains no user vectors; the served item matrix is scored for
  // the preset's users with seeded Gaussian user vectors.
  ThreadPool eval_pool(options.threads);
  Matrix users(train.num_users(), kDim);
  Rng user_rng(seed + 6);
  users.FillGaussian(user_rng, 0.0f, 0.1f);
  const Evaluator evaluator(train, split.test_items, MetricsConfig{}, seed + 5);
  const std::vector<std::uint32_t> targets = {target};
  const MetricsResult metrics =
      evaluator.Evaluate(users, model.item_factors(), targets, &eval_pool);
  if (options.trace) {
    ScopedSpan span(tracer, l_eval_er, 0);
    (void)evaluator.ExposureRatio(users, model.item_factors(), targets, 10,
                                  &eval_pool);
  }
  CheckExposure(users, model.item_factors(), train, target, metrics, outcome);

  // -- Metrics -----------------------------------------------------------------
  const double mean_round_us =
      timed_rounds == 0 ? 0.0 : window / static_cast<double>(timed_rounds) * 1e6;
  if (!options.trace) {
    // Per batch of kBatchRounds consecutive rounds, at the fast decile over
    // batches (see kFastDecile in harness.h).
    std::vector<double> batch_rates;
    std::vector<double> batch_p50;
    double batch_start = window_start;
    for (std::size_t r = kBatchRounds; r <= fleet.round_done.size();
         r += kBatchRounds) {
      batch_rates.push_back(kBatchRounds / (fleet.round_done[r - 1] - batch_start));
      batch_start = fleet.round_done[r - 1];
      const auto first = fleet.latency_ms.begin() +
                         static_cast<std::ptrdiff_t>((r - kBatchRounds) * kClients);
      batch_p50.push_back(
          Median(std::vector<double>(first, first + kBatchRounds * kClients)));
    }
    values["peak_rss_mb"] = fleet_rss_mb;
    values["rounds_per_s"] = Percentile(batch_rates, 100.0 - kFastDecile);
    values["upload_ack_p50_ms"] = Percentile(batch_p50, kFastDecile);
    std::snprintf(line, sizeof(line),
                  "upload-ack latency over all %zu timed uploads: p50 %.3f ms, "
                  "p99 %.3f ms (p99 is informational: unsteady on shared "
                  "hosts); %zu batches of %zu rounds",
                  fleet.latency_ms.size(), Percentile(fleet.latency_ms, 50.0),
                  Percentile(fleet.latency_ms, 99.0), batch_rates.size(),
                  kBatchRounds);
    Outcome::Note(line);
  } else {
    const double n = static_cast<double>(replay_rounds);
    values["wire.encode_us"] = l_encode->MeanUs();
    values["wire.decode_us"] = l_decode->MeanUs();
    values["wire.upload_bytes"] = upload_bytes / (n * kClients);
    values["shard.route_us"] = l_route->MeanUs();
    values["shard.exchange_us"] = exchange_slowest_us / n;
    values["shard.merge_us"] = l_merge->MeanUs();
    values["fleet.apply_us"] = l_apply->MeanUs();
    values["shard.wire_bytes"] = wire_bytes / n;
    values["model.eval_er_s"] = l_eval_er->MeanUs() * 1e-6;
    // The coordinator serves its shards one after the other, so the round
    // waits for the sum of the shard round trips, not the slowest one.
    values["fleet.residual_us"] =
        mean_round_us -
        (kClients * l_decode->MeanUs() + l_route->MeanUs() +
         exchange_sum_us / n + l_merge->MeanUs() + l_apply->MeanUs());
    std::snprintf(line, sizeof(line),
                  "traced: %llu served rounds at %.2f rounds/s, %llu replayed",
                  static_cast<unsigned long long>(timed_rounds),
                  static_cast<double>(timed_rounds) / window,
                  static_cast<unsigned long long>(replay_rounds));
    Outcome::Note(line);
    const std::string path =
        ".bench_out/trace-socket_fleet-" + std::to_string(seed) + ".json";
    outcome.Check(tracer.WriteChromeTrace(path),
                  "Chrome trace written (" +
                      std::to_string(tracer.span_count()) + " spans)");
    Outcome::Note("trace: " + path);
  }
}

}  // namespace perfbench
