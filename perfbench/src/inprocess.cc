/// The two in-process workloads: `paper_attack` (the paper's default
/// FedRecAttack experiment at MovieLens-1M size) and `robust_crossdevice`
/// (a benign, median-defended, cross-device federation at Steam-200K size).
///
/// Untraced mode drives whole rounds through Simulation::RunRounds and
/// times each one. Traced mode spends the first half of the window the same
/// way (for the mean round time and the pipelined share), then runs the
/// RoundEngine stages one at a time under the benchmark's own spans.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "attack/attack_factory.h"
#include "attack/target_select.h"
#include "checks.h"
#include "common/threadpool.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "model/metrics.h"
#include "shard/checkpoint.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fedrec;

/// Spans of the in-process layers.
struct InProcessLayers {
  explicit InProcessLayers(Tracer& tracer)
      : generate(tracer.layer("data.generate")),
        split(tracer.layer("data.split")),
        setup(tracer.layer("fed.setup")),
        select(tracer.layer("fed.select")),
        local_train(tracer.layer("fed.local_train")),
        attack(tracer.layer("attack.produce")),
        aggregate(tracer.layer("fed.aggregate")),
        apply(tracer.layer("fed.apply")),
        parallel_for(tracer.layer("common.parallel_for")),
        eval_er(tracer.layer("model.eval_er")),
        capture(tracer.layer("ckpt.capture")),
        encode(tracer.layer("ckpt.encode")),
        write(tracer.layer("ckpt.write")) {}
  Tracer::Layer* generate;
  Tracer::Layer* split;
  Tracer::Layer* setup;
  Tracer::Layer* select;
  Tracer::Layer* local_train;
  Tracer::Layer* attack;
  Tracer::Layer* aggregate;
  Tracer::Layer* apply;
  Tracer::Layer* parallel_for;
  Tracer::Layer* eval_er;
  Tracer::Layer* capture;
  Tracer::Layer* encode;
  Tracer::Layer* write;
};

/// Work counters of the staged rounds.
struct StagedCounts {
  std::uint64_t rounds = 0;
  std::uint64_t pairs = 0;
  std::uint64_t attack_rounds = 0;
  std::uint64_t aggregate_rows = 0;
};

/// One round through the RoundEngine stages in protocol order (the serial
/// schedule), each under its own span.
double StagedRound(Simulation& sim, Tracer& tracer, const InProcessLayers& l,
                   StagedCounts& counts, const RoundObserver& observer) {
  RoundEngine& engine = sim.engine();
  const std::uint64_t round = engine.global_round();
  double loss = 0.0;
  {
    ScopedSpan span(tracer, l.select, round);
    engine.Select();
  }
  {
    ScopedSpan span(tracer, l.local_train, round);
    loss = engine.LocalTrain();
  }
  {
    ScopedSpan span(tracer, l.attack, round);
    engine.Attack();
  }
  engine.Observe(observer);
  engine.ApplyTransitFaults();
  {
    ScopedSpan span(tracer, l.aggregate, round);
    engine.Aggregate();
  }
  {
    ScopedSpan span(tracer, l.apply, round);
    engine.Apply();
  }
  engine.AdvanceRound();
  const RoundWorkspace& workspace = engine.workspace();
  ++counts.rounds;
  for (std::size_t i = 0; i < workspace.updates.size(); ++i) {
    if (!workspace.is_malicious[i]) counts.pairs += workspace.updates[i].pair_count;
  }
  if (!workspace.selected_malicious.empty()) ++counts.attack_rounds;
  counts.aggregate_rows += workspace.delta.row_count();
  return loss;
}

/// Mean cost of one ThreadPool::ParallelFor dispatch over `threads` no-op
/// chunks, each call under a span.
void TraceParallelFor(ThreadPool& pool, std::size_t threads, Tracer& tracer,
                      const InProcessLayers& l) {
  for (int i = 0; i < 2000; ++i) {
    ScopedSpan span(tracer, l.parallel_for, static_cast<std::uint64_t>(i));
    pool.ParallelFor(0, threads, 1, [](std::size_t) {});
  }
}

/// The per-round timing ledger shared by both workloads. Untraced rounds
/// are grouped by epoch, and the end-to-end figures are taken over epochs at
/// their fast decile (see kFastDecile in harness.h): per-epoch costs such as
/// negative resampling, and on paper_attack the epoch's evaluation and
/// autosave, recur in every epoch and stay inside the figure.
struct RoundLedger {
  std::vector<double> round_s;   ///< untraced RunRound wall times
  std::vector<std::size_t> epoch_end;  ///< index into round_s past each epoch
  std::vector<double> epoch_close_s;   ///< work at each epoch's end
  std::vector<double> staged_s;  ///< traced staged-round wall times
  double rss_mb = 0.0;           ///< peak RSS after the fixed-work rounds

  void Round(double seconds, bool staged) {
    (staged ? staged_s : round_s).push_back(seconds);
  }
  void EpochClosed(double close_seconds) {
    if (epoch_end.empty() || epoch_end.back() != round_s.size()) {
      epoch_end.push_back(round_s.size());
      epoch_close_s.push_back(close_seconds);
    }
  }
};

void ReportRoundMetrics(const RoundLedger& ledger, Values& values) {
  std::vector<double> rates;
  std::vector<double> medians;
  std::size_t begin = 0;
  for (std::size_t e = 0; e < ledger.epoch_end.size(); ++e) {
    const std::size_t end = ledger.epoch_end[e];
    const std::vector<double> epoch(ledger.round_s.begin() + begin,
                                    ledger.round_s.begin() + end);
    double total = ledger.epoch_close_s[e];
    for (double t : epoch) total += t;
    rates.push_back(static_cast<double>(epoch.size()) / total);
    medians.push_back(Median(epoch));
    begin = end;
  }
  values["rounds_per_s"] = Percentile(rates, 100.0 - kFastDecile);
  values["upload_ack_p50_ms"] = Percentile(medians, kFastDecile) * 1e3;
  values["peak_rss_mb"] = ledger.rss_mb;
  char line[200];
  std::snprintf(line, sizeof(line),
                "round latency: %zu rounds in %zu epochs; p50 %.3f ms, p99 "
                "%.3f ms (p99 is informational: unsteady on shared hosts)",
                ledger.round_s.size(), ledger.epoch_end.size(),
                Percentile(ledger.round_s, 50.0) * 1e3,
                Percentile(ledger.round_s, 99.0) * 1e3);
  Outcome::Note(line);
}

/// Traced-mode metrics common to both in-process workloads.
void ReportStagedMetrics(const RoundLedger& ledger, const StagedCounts& counts,
                         const InProcessLayers& l, std::size_t pipelined,
                         Values& values) {
  values["fed.select_us"] = l.select->MeanUs();
  values["fed.local_train_us"] = l.local_train->MeanUs();
  values["fed.local_train_pairs"] = static_cast<double>(counts.pairs);
  values["attack.produce_us"] =
      counts.attack_rounds == 0 ? 0.0 : l.attack->MeanUs();
  values["attack.rounds"] = static_cast<double>(counts.attack_rounds);
  values["fed.aggregate_us"] = l.aggregate->MeanUs();
  values["fed.aggregate_rows"] = static_cast<double>(counts.aggregate_rows);
  values["fed.apply_us"] = l.apply->MeanUs();
  values["common.parallel_for_us"] = l.parallel_for->MeanUs();
  values["fed.pipelined_share"] =
      static_cast<double>(pipelined) /
      static_cast<double>(ledger.round_s.size());
  // The first epoch carries one-time work (the attack's first 30-epoch
  // approximation, buffer growth) that the staged half never sees.
  const std::size_t warm =
      ledger.epoch_end.size() > 1 ? ledger.epoch_end.front() : 0;
  double warm_total = 0.0;
  for (std::size_t i = warm; i < ledger.round_s.size(); ++i) {
    warm_total += ledger.round_s[i];
  }
  const double warm_rounds = static_cast<double>(ledger.round_s.size() - warm);
  const double mean_round_us = warm_total / warm_rounds * 1e6;
  const double stages = l.select->MeanUs() + l.local_train->MeanUs() +
                        l.attack->MeanUs() + l.aggregate->MeanUs() +
                        l.apply->MeanUs();
  values["fed.round_residual_us"] = mean_round_us - stages;
  double staged_total = 0.0;
  for (double t : ledger.staged_s) staged_total += t;
  char line[200];
  std::snprintf(line, sizeof(line),
                "traced: %zu staged rounds (spans on) at %.2f rounds/s; "
                "RunRounds after the first epoch (spans off) %.2f rounds/s "
                "over %.0f rounds",
                ledger.staged_s.size(),
                static_cast<double>(ledger.staged_s.size()) / staged_total,
                warm_rounds / warm_total, warm_rounds);
  Outcome::Note(line);
}

Result<Dataset> Generate(const char* preset, std::uint64_t seed,
                         Tracer& tracer, const InProcessLayers& l,
                         Values& values) {
  const std::uint64_t start = Tracer::Now();
  Result<Dataset> data = GenerateByName(preset, seed, 1.0);
  values["data.generate_s"] =
      static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l.generate, start, 0);
  return data;
}

}  // namespace

// ---------------------------------------------------------------------------

void RunPaperAttack(const RunOptions& options, Outcome& outcome,
                    Values& values) {
  Tracer tracer(options.trace);
  const InProcessLayers l(tracer);
  const std::uint64_t seed = options.seed;

  Result<Dataset> data = Generate("ml-1m", seed, tracer, l, values);
  data.status().CheckOK();
  std::uint64_t start = Tracer::Now();
  Rng split_rng(seed + 1);
  const LeaveOneOutSplit split = SplitLeaveOneOut(data.value(), split_rng);
  const PublicInteractions view = PublicInteractions::Sample(
      split.train, /*xi=*/0.01, split_rng, PublicSamplingMode::kCeil);
  values["data.split_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l.split, start, 0);

  Rng target_rng(seed + 2);
  const std::vector<std::uint32_t> targets = SelectTargetItems(
      split.train, 1, TargetSelection::kUnpopular, target_rng);

  FedConfig config;
  config.model.dim = 32;
  config.model.learning_rate = 0.01f;
  config.clients_per_round = 64;
  config.participation = ParticipationMode::kShuffledEpochs;
  config.epochs = 1u << 20;  // the run stops on the clock, not on a count
  config.aggregator.kind = AggregatorKind::kSum;
  config.seed = seed + 3;

  AttackOptions attack_options;
  attack_options.kind = "fedrecattack";
  attack_options.target_items = targets;
  attack_options.kappa = 60;
  attack_options.clip_norm = config.clip_norm;
  attack_options.step_size = 1.0f;
  attack_options.rec_k = 10;
  attack_options.users_per_step = 256;
  attack_options.seed = seed + 4;
  AttackInputs inputs;
  inputs.train = &split.train;
  inputs.public_view = &view;
  inputs.num_benign_users = split.train.num_users();
  inputs.dim = config.model.dim;
  const std::size_t num_malicious = static_cast<std::size_t>(
      0.05 * static_cast<double>(split.train.num_users()) + 0.5);

  const Evaluator evaluator(split.train, split.test_items, MetricsConfig{},
                            seed + 5);
  ThreadPool pool(options.threads);

  start = Tracer::Now();
  Result<std::unique_ptr<MaliciousCoordinator>> attack =
      CreateAttack(attack_options, inputs);
  attack.status().CheckOK();
  Simulation sim(split.train, config, num_malicious, attack.value().get(),
                 &pool);
  values["fed.setup_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l.setup, start, 0);

  const std::string dir = MakeScratchDir("ckpt");
  FEDREC_CHECK(!dir.empty()) << "cannot create the checkpoint directory";
  const std::string ckpt_path = dir + "/autosave.frck";
  cleanup::AddFile(ckpt_path);
  cleanup::AddFile(ckpt_path + ".tmp");
  values["setup_s"] = SinceStart();

  // Check input, outside set-up and the timed window: the target's exposure
  // on the untrained model.
  const double untrained_er10 = evaluator.ExposureRatio(
      sim.BenignUserFactors(), sim.model().item_factors(), targets, 10, &pool);

  // Peak RSS is read after a fixed amount of work (and the run always does
  // at least that much), so a build that runs more rounds in the window is
  // not charged for the extra high-water growth of its recycled buffers.
  constexpr std::size_t kFixedWorkEpochs = 3;
  RoundLedger ledger;
  StagedCounts counts;
  std::vector<double> epoch_losses;
  MetricsResult last_metrics;
  std::size_t pipelined_after_phase_a = 0;
  bool staged = false;
  bool staged_epoch_done = false;
  BinaryWriter encoded;
  const RoundObserver no_observer;
  const double window_start = NowSeconds();
  for (;;) {
    const double t0 = NowSeconds();
    if (staged) {
      sim.RunRounds(1, [&] {
        return StagedRound(sim, tracer, l, counts, no_observer);
      });
    } else {
      sim.RunRounds(1);
    }
    ledger.Round(NowSeconds() - t0, staged);
    if (sim.epoch_open()) continue;

    // Epoch boundary: evaluation, then the FRCK autosave.
    epoch_losses.push_back(sim.epoch_loss());
    const double e0 = NowSeconds();
    last_metrics = evaluator.Evaluate(sim.BenignUserFactors(),
                                      sim.model().item_factors(), targets,
                                      &pool);
    const std::uint64_t epoch = epoch_losses.size();
    if (staged) {
      {
        ScopedSpan span(tracer, l.eval_er, epoch);
        (void)evaluator.ExposureRatio(sim.BenignUserFactors(),
                                      sim.model().item_factors(), targets, 10,
                                      &pool);
      }
      TrainingCheckpoint checkpoint;
      {
        ScopedSpan span(tracer, l.capture, epoch);
        checkpoint = CaptureCheckpoint(sim);
      }
      {
        ScopedSpan span(tracer, l.encode, epoch);
        encoded.Clear();
        EncodeCheckpoint(checkpoint, encoded);
      }
      ScopedSpan span(tracer, l.write, epoch);
      SaveCheckpointAtomic(checkpoint, ckpt_path).CheckOK();
      staged_epoch_done = true;
    } else {
      SaveCheckpointAtomic(CaptureCheckpoint(sim), ckpt_path).CheckOK();
      ledger.EpochClosed(NowSeconds() - e0);
    }
    if (epoch_losses.size() == kFixedWorkEpochs) ledger.rss_mb = SelfPeakRssMb();

    const double elapsed = NowSeconds() - window_start;
    if (options.trace && !staged && elapsed >= options.seconds / 2 &&
        epoch_losses.size() >= kFixedWorkEpochs) {
      staged = true;
      pipelined_after_phase_a = sim.engine().pipelined_rounds();
    }
    if (elapsed >= options.seconds && epoch_losses.size() >= kFixedWorkEpochs &&
        (!options.trace || staged_epoch_done)) {
      break;
    }
  }
  const std::size_t rounds = ledger.round_s.size() + ledger.staged_s.size();
  outcome.attempted = rounds;
  Outcome::Note("epochs " + std::to_string(epoch_losses.size()) + ", rounds " +
                std::to_string(rounds) + ", one evaluation and autosave each");
  char line[200];
  std::snprintf(line, sizeof(line),
                "final ER@5 %.4f ER@10 %.4f NDCG@10 %.4f HR@10 %.4f "
                "(untrained ER@10 %.4f)",
                last_metrics.er_at[0], last_metrics.er_at[1],
                last_metrics.ndcg, last_metrics.hit_ratio, untrained_er10);
  Outcome::Note(line);

  // -- Checks -----------------------------------------------------------------
  const Matrix users = sim.BenignUserFactors();
  const Matrix& items = sim.model().item_factors();
  CheckExposure(users, items, split.train, targets[0], last_metrics, outcome);

  outcome.Check(last_metrics.er_at[1] > untrained_er10,
                "target ER@10 rose above the untrained model's");
  outcome.SelfTest(!(untrained_er10 > last_metrics.er_at[1]),
                   "ER@10 rise with trained and untrained swapped");

  outcome.Check(epoch_losses.back() < epoch_losses.front(),
                "last epoch's BPR loss below the first epoch's");
  outcome.SelfTest(!(epoch_losses.front() < epoch_losses.back()),
                   "loss fall with first and last epochs swapped");

  Result<TrainingCheckpoint> loaded = LoadCheckpoint(ckpt_path);
  outcome.Check(loaded.ok(), "last FRCK autosave reloads with a valid CRC");
  outcome.Check(loaded.ok() && BitIdentical(loaded.value().item_factors, items),
                "FRCK item matrix bit-identical to the live model");
  outcome.SelfTest(loaded.ok() && !BitIdentical(FlipOneBit(items),
                                                loaded.value().item_factors),
                   "FRCK bit identity against a one-bit-flipped model");
  {
    std::ifstream file(ckpt_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x01;
    BinaryReader reader = BinaryReader::View(bytes);
    TrainingCheckpoint corrupt;
    outcome.SelfTest(!DecodeCheckpoint(reader, corrupt).ok(),
                     "FRCK reload of a copy with one flipped byte");
  }

  // -- Metrics -----------------------------------------------------------------
  if (!options.trace) {
    ReportRoundMetrics(ledger, values);
  } else {
    TraceParallelFor(pool, options.threads, tracer, l);
    ReportStagedMetrics(ledger, counts, l, pipelined_after_phase_a, values);
    values["model.eval_er_s"] = l.eval_er->MeanUs() * 1e-6;
    values["ckpt.capture_ms"] = l.capture->MeanUs() * 1e-3;
    values["ckpt.encode_ms"] = l.encode->MeanUs() * 1e-3;
    values["ckpt.write_ms"] = l.write->MeanUs() * 1e-3;
    values["ckpt.bytes"] = static_cast<double>(encoded.buffer().size());
    const std::string path =
        ".bench_out/trace-paper_attack-" + std::to_string(seed) + ".json";
    outcome.Check(tracer.WriteChromeTrace(path),
                  "Chrome trace written (" +
                      std::to_string(tracer.span_count()) + " spans)");
    Outcome::Note("trace: " + path);
  }
}

// ---------------------------------------------------------------------------

void RunRobustCrossDevice(const RunOptions& options, Outcome& outcome,
                          Values& values) {
  Tracer tracer(options.trace);
  const InProcessLayers l(tracer);
  const std::uint64_t seed = options.seed;

  Result<Dataset> data = Generate("steam-200k", seed, tracer, l, values);
  data.status().CheckOK();
  std::uint64_t start = Tracer::Now();
  Rng split_rng(seed + 1);
  const LeaveOneOutSplit split = SplitLeaveOneOut(data.value(), split_rng);
  values["data.split_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l.split, start, 0);

  Rng target_rng(seed + 2);
  const std::vector<std::uint32_t> targets = SelectTargetItems(
      split.train, 1, TargetSelection::kUnpopular, target_rng);

  FedConfig config;
  config.model.dim = 32;
  config.model.learning_rate = 0.01f;
  config.clients_per_round = 32;
  config.participation = ParticipationMode::kUniformPerRound;
  config.pipeline_rounds = true;
  config.epochs = 1u << 20;
  config.aggregator.kind = AggregatorKind::kMedian;
  config.seed = seed + 3;

  const Evaluator evaluator(split.train, split.test_items, MetricsConfig{},
                            seed + 5);
  ThreadPool pool(options.threads);
  start = Tracer::Now();
  Simulation sim(split.train, config, 0, nullptr, &pool);
  values["fed.setup_s"] = static_cast<double>(Tracer::Now() - start) * 1e-9;
  if (tracer.enabled()) tracer.End(l.setup, start, 0);
  values["setup_s"] = SinceStart();

  // Sampled rounds are observed: their uploads and the item matrix around
  // them feed the median recomputation.
  constexpr std::uint64_t kSampleEvery = 64;
  RoundRecord record;
  RoundRecord first_record;
  std::size_t median_checked = 0;
  std::size_t median_failed = 0;
  std::string median_why;
  const RoundObserver observer = [&record](const std::vector<ClientUpdate>& ups,
                                           const std::vector<bool>&) {
    record.uploads.clear();
    for (const ClientUpdate& update : ups) {
      UploadCopy copy;
      copy.rows = update.item_gradients.row_ids();
      for (std::size_t slot = 0; slot < copy.rows.size(); ++slot) {
        const auto row = update.item_gradients.RowAtSlot(slot);
        copy.values.insert(copy.values.end(), row.begin(), row.end());
      }
      record.uploads.push_back(std::move(copy));
    }
  };
  const RoundObserver no_observer;

  constexpr std::uint64_t kFixedWorkRounds = 2048;  // see paper_attack
  RoundLedger ledger;
  StagedCounts counts;
  Matrix epoch0_items;
  Matrix epoch0_users;
  std::size_t pipelined_after_phase_a = 0;
  bool staged = false;
  const double window_start = NowSeconds();
  for (;;) {
    const bool sampled = sim.global_round() % kSampleEvery == kSampleEvery / 2;
    if (sampled) record.before = sim.model().item_factors();
    const double t0 = NowSeconds();
    if (staged) {
      sim.RunRounds(1, [&] {
        return StagedRound(sim, tracer, l, counts,
                           sampled ? observer : no_observer);
      });
    } else {
      sim.SetRoundObserver(sampled ? observer : no_observer);
      sim.RunRounds(1);
    }
    ledger.Round(NowSeconds() - t0, staged);
    if (sampled) {
      record.after = sim.model().item_factors();
      std::string why;
      ++median_checked;
      if (!CheckMedianRound(record, config.model.learning_rate, &why)) {
        if (median_failed++ == 0) median_why = why;
      }
      if (first_record.uploads.empty()) first_record = record;
    }
    const bool epoch_closed = !sim.epoch_open();
    if (epoch_closed && !staged) ledger.EpochClosed(0.0);
    if (sim.global_round() == kFixedWorkRounds) ledger.rss_mb = SelfPeakRssMb();
    if (epoch_closed && sim.current_epoch() == 1) {
      epoch0_items = sim.model().item_factors();
      epoch0_users = sim.BenignUserFactors();
    }
    const double elapsed = NowSeconds() - window_start;
    if (options.trace && !staged && elapsed >= options.seconds / 2 &&
        epoch_closed && sim.global_round() >= kFixedWorkRounds) {
      // Switch at an epoch boundary, where no pipelined round is pending.
      staged = true;
      pipelined_after_phase_a = sim.engine().pipelined_rounds();
    }
    if (elapsed >= options.seconds && sim.global_round() >= kFixedWorkRounds &&
        (!options.trace || counts.rounds > 0)) {
      break;
    }
  }
  sim.SetRoundObserver(no_observer);
  const std::size_t rounds = ledger.round_s.size() + ledger.staged_s.size();
  outcome.attempted = rounds;

  // One evaluation at the end.
  const MetricsResult metrics = evaluator.Evaluate(
      sim.BenignUserFactors(), sim.model().item_factors(), targets, &pool);
  if (options.trace) {
    ScopedSpan span(tracer, l.eval_er, 0);
    (void)evaluator.ExposureRatio(sim.BenignUserFactors(),
                                  sim.model().item_factors(), targets, 10,
                                  &pool);
  }
  Outcome::Note("rounds " + std::to_string(rounds) + ", epochs " +
                std::to_string(sim.current_epoch()) + ", pipelined rounds " +
                std::to_string(sim.engine().pipelined_rounds()));
  char line[200];
  std::snprintf(line, sizeof(line),
                "final ER@5 %.4f ER@10 %.4f NDCG@10 %.4f HR@10 %.4f",
                metrics.er_at[0], metrics.er_at[1], metrics.ndcg,
                metrics.hit_ratio);
  Outcome::Note(line);

  // -- Checks -----------------------------------------------------------------
  outcome.Check(median_checked > 0 && median_failed == 0,
                "model change = -lr x coordinate-wise median on " +
                    std::to_string(median_checked) + " sampled rounds" +
                    (median_why.empty() ? "" : " (" + median_why + ")"));
  RoundRecord nudged = first_record;
  outcome.SelfTest(NudgeMedianInput(nudged) &&
                       !CheckMedianRound(nudged, config.model.learning_rate,
                                         nullptr),
                   "median recomputation with one nudged coordinate");

  // The first epoch again on a fresh, serial simulation (no pool, so no
  // pipelining): the timed run must have produced the same bits.
  Simulation serial(split.train, config, 0, nullptr, nullptr);
  serial.RunEpoch();
  outcome.Check(BitIdentical(serial.model().item_factors(), epoch0_items) &&
                    BitIdentical(serial.BenignUserFactors(), epoch0_users),
                "epoch-1 model bit-identical to a serial re-run");
  outcome.SelfTest(!BitIdentical(serial.model().item_factors(),
                                 FlipOneBit(epoch0_items)),
                   "serial bit identity against a one-bit-flipped model");

  CheckExposure(sim.BenignUserFactors(), sim.model().item_factors(),
                split.train, targets[0], metrics, outcome);

  // -- Metrics -----------------------------------------------------------------
  if (!options.trace) {
    ReportRoundMetrics(ledger, values);
  } else {
    TraceParallelFor(pool, options.threads, tracer, l);
    ReportStagedMetrics(ledger, counts, l, pipelined_after_phase_a, values);
    values["model.eval_er_s"] = l.eval_er->MeanUs() * 1e-6;
    const std::string path =
        ".bench_out/trace-robust_crossdevice-" + std::to_string(seed) + ".json";
    outcome.Check(tracer.WriteChromeTrace(path),
                  "Chrome trace written (" +
                      std::to_string(tracer.span_count()) + " spans)");
    Outcome::Note("trace: " + path);
  }
}

}  // namespace perfbench
