#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/// \file
/// Independent correctness checks. None of them compares against a stored
/// copy of an earlier output: each recomputes the expected value from the
/// run's own inputs in plain double loops, or tests a property the method
/// must have. Each check is a pure function of its inputs, so the self-test
/// can feed it a deliberately perturbed input and require a rejection.

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"
#include "harness.h"
#include "model/metrics.h"

namespace perfbench {

/// One upload as the benchmark keeps it: row ids and row-major values.
struct UploadCopy {
  std::vector<std::size_t> rows;
  std::vector<float> values;  ///< rows.size() x dim
};

// -- Exposure ratio ---------------------------------------------------------

/// ER@5 and ER@10 of every item, recomputed in double from U, V and the
/// training interactions. Float scoring can reorder items whose scores lie
/// within rounding distance, so each (item, K) gets a band: `in` users rank
/// the item inside the top K by a margin, `ambiguous` users are within the
/// rounding band of the K-th place.
struct ExposureBands {
  static constexpr std::size_t kKs[2] = {5, 10};
  std::size_t num_users = 0;
  std::vector<std::uint32_t> in[2];
  std::vector<std::uint32_t> ambiguous[2];
  /// True when `er` (an evaluator's ER@kKs[k]) lies in `item`'s band.
  bool Contains(std::uint32_t item, std::size_t k, double er) const;
  /// The item whose band lies farthest from `er` (never `exclude`): the
  /// swapped-target perturbation of the self-test.
  std::uint32_t FarthestItem(std::size_t k, double er,
                             std::uint32_t exclude) const;
};
ExposureBands RecomputeExposure(const fedrec::Matrix& users,
                                const fedrec::Matrix& items,
                                const fedrec::Dataset& train);
/// Checks an evaluator's ER@5/ER@10 of `target` against the recomputation,
/// then self-tests with the target swapped for the item whose recomputed
/// exposure lies farthest from the evaluator's value.
void CheckExposure(const fedrec::Matrix& users, const fedrec::Matrix& items,
                   const fedrec::Dataset& train, std::uint32_t target,
                   const fedrec::MetricsResult& metrics, Outcome& outcome);

// -- Coordinate-wise median round -------------------------------------------

/// One observed round: its uploads and the item matrix around it.
struct RoundRecord {
  std::vector<UploadCopy> uploads;
  fedrec::Matrix before;
  fedrec::Matrix after;
};
/// The model change equals -lr x the coordinate-wise median under the rule
/// fed/aggregator.h documents (per row over the uploads carrying it, upper
/// and lower middle averaged for an even count, rescaled by the contributor
/// count); rows no upload touched are bit-unchanged.
bool CheckMedianRound(const RoundRecord& round, float learning_rate,
                      std::string* why);
/// Self-test input: `round` with one coordinate of a single-contributor row
/// nudged. Returns false when the round has no such row.
bool NudgeMedianInput(RoundRecord& round);

// -- Bit identity -----------------------------------------------------------

bool BitIdentical(const fedrec::Matrix& a, const fedrec::Matrix& b);
/// Copy of `m` with the lowest mantissa bit of one element flipped.
fedrec::Matrix FlipOneBit(const fedrec::Matrix& m);

// -- Sum-rule conservation over a served run ---------------------------------

/// Expected final model of a sum-rule service, replayed round by round in
/// double, with a rigorous float rounding bound per coordinate.
struct ConservationModel {
  std::vector<double> expected;  ///< num_items x dim
  std::vector<double> tolerance;
  std::vector<std::uint8_t> touched;  ///< per row
  std::size_t dim = 0;
};
/// `rounds[r]` lists indices into `pool` of the uploads acked in round r.
ConservationModel ReplaySumRounds(
    const fedrec::Matrix& initial, const std::vector<UploadCopy>& pool,
    const std::vector<std::vector<std::uint32_t>>& rounds,
    float learning_rate);
/// The served model equals the replay within the bound; untouched rows are
/// bit-equal to the initial model.
bool CheckConservation(const ConservationModel& model,
                       const fedrec::Matrix& initial,
                       const fedrec::Matrix& served, std::string* why);
/// Self-test input: the replay with one acked upload dropped.
ConservationModel DropOneUpload(ConservationModel model,
                                const UploadCopy& upload,
                                float learning_rate);

// -- Ack ledger -------------------------------------------------------------

struct AckRecord {
  std::uint32_t client;
  std::uint64_t round;
};
/// Every client's uploads are acked exactly once each, in order, with the
/// id of the round the upload belonged to (a client's k-th upload belongs
/// to round k, since each round takes exactly one upload per client).
bool CheckAckLedger(const std::vector<AckRecord>& acks,
                    const std::vector<std::uint64_t>& sent_per_client,
                    std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
