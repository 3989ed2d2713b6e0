#include "checks.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <map>
#include <cstdio>
#include <sstream>

namespace perfbench {

using fedrec::Matrix;

// -- Exposure ratio ---------------------------------------------------------

bool ExposureBands::Contains(std::uint32_t item, std::size_t k,
                             double er) const {
  const double n = static_cast<double>(num_users);
  const double lo = static_cast<double>(in[k][item]) / n;
  const double hi =
      static_cast<double>(in[k][item] + ambiguous[k][item]) / n;
  return er >= lo - 1e-12 && er <= hi + 1e-12;
}

std::uint32_t ExposureBands::FarthestItem(std::size_t k, double er,
                                          std::uint32_t exclude) const {
  const double n = static_cast<double>(num_users);
  std::uint32_t best = exclude == 0 ? 1 : 0;
  double best_gap = -1.0;
  for (std::uint32_t item = 0; item < in[k].size(); ++item) {
    if (item == exclude) continue;
    const double lo = static_cast<double>(in[k][item]) / n;
    const double hi =
        static_cast<double>(in[k][item] + ambiguous[k][item]) / n;
    const double gap = std::max(lo - er, er - hi);
    if (gap > best_gap) {
      best_gap = gap;
      best = item;
    }
  }
  return best;
}

ExposureBands RecomputeExposure(const Matrix& users, const Matrix& items,
                                const fedrec::Dataset& train) {
  const std::size_t num_users = users.rows();
  const std::size_t num_items = items.rows();
  const std::size_t dim = items.cols();
  ExposureBands bands;
  bands.num_users = num_users;
  for (std::size_t k = 0; k < 2; ++k) {
    bands.in[k].assign(num_items, 0);
    bands.ambiguous[k].assign(num_items, 0);
  }
  double max_item_norm = 0.0;
  for (std::size_t j = 0; j < num_items; ++j) {
    double norm = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      norm += static_cast<double>(items.At(j, d)) * items.At(j, d);
    }
    max_item_norm = std::max(max_item_norm, std::sqrt(norm));
  }

  std::vector<double> scores(num_items);
  std::vector<double> candidates;
  std::vector<std::uint32_t> near;
  for (std::size_t u = 0; u < num_users; ++u) {
    double user_norm = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      user_norm += static_cast<double>(users.At(u, d)) * users.At(u, d);
    }
    user_norm = std::sqrt(user_norm);
    for (std::size_t j = 0; j < num_items; ++j) {
      double score = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        score += static_cast<double>(users.At(u, d)) * items.At(j, d);
      }
      scores[j] = score;
    }
    // Interacted items are never recommended; mark them out of the ranking.
    const std::vector<std::uint32_t>& seen = train.UserItems(u);
    for (std::uint32_t j : seen) scores[j] = -HUGE_VAL;
    const std::size_t available = num_items - seen.size();
    if (available == 0) continue;

    // A float dot product of `dim` terms errs by at most about
    // dim * 2^-24 * |u| |v|; eps leaves a wide margin over two such errors.
    const double eps = 1e-5 * user_norm * max_item_norm + 1e-30;
    candidates.assign(scores.begin(), scores.end());
    const std::size_t kth = std::min<std::size_t>(10, available) - 1;
    std::nth_element(candidates.begin(), candidates.begin() + kth,
                     candidates.end(), std::greater<double>());
    const double boundary = candidates[kth];
    // Only items within 2 eps of the 10th score can be in or near any top
    // K <= 10; everything that outranks them is in this set too.
    near.clear();
    for (std::uint32_t j = 0; j < num_items; ++j) {
      if (scores[j] != -HUGE_VAL && scores[j] >= boundary - 2 * eps) {
        near.push_back(j);
      }
    }
    for (std::uint32_t j : near) {
      std::size_t greater = 0;
      std::size_t close = 0;
      for (std::uint32_t other : near) {
        if (other == j) continue;
        if (scores[other] > scores[j] + eps) {
          ++greater;
        } else if (scores[other] >= scores[j] - eps) {
          ++close;
        }
      }
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t top = ExposureBands::kKs[k];
        if (greater + close < top) {
          ++bands.in[k][j];
        } else if (greater < top) {
          ++bands.ambiguous[k][j];
        }
      }
    }
  }
  return bands;
}

/// ER@5/ER@10 from the evaluator against the benchmark's double-loop
/// recomputation, plus the swapped-target self-test.
void CheckExposure(const Matrix& users, const Matrix& items,
                   const fedrec::Dataset& train, std::uint32_t target,
                   const fedrec::MetricsResult& metrics, Outcome& outcome) {
  const ExposureBands bands = RecomputeExposure(users, items, train);
  for (std::size_t k = 0; k < 2; ++k) {
    const double er = metrics.er_at[k];
    const std::size_t top = ExposureBands::kKs[k];
    char what[128];
    std::snprintf(what, sizeof(what),
                  "ER@%zu = %.6f matches double recomputation (%llu near-ties)",
                  top, er,
                  static_cast<unsigned long long>(bands.ambiguous[k][target]));
    outcome.Check(bands.Contains(target, k, er), what);
    const std::uint32_t swapped = bands.FarthestItem(k, er, target);
    std::snprintf(what, sizeof(what), "ER@%zu recomputed for swapped target %u",
                  top, swapped);
    outcome.SelfTest(!bands.Contains(swapped, k, er), what);
  }
}

// -- Coordinate-wise median round -------------------------------------------

namespace {

/// Per row: (upload index, slot) of every contributor, in upload order.
std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>>
ContributorsByRow(const std::vector<UploadCopy>& uploads) {
  std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>> by_row;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    for (std::size_t slot = 0; slot < uploads[i].rows.size(); ++slot) {
      by_row[uploads[i].rows[slot]].push_back({i, slot});
    }
  }
  return by_row;
}

}  // namespace

bool CheckMedianRound(const RoundRecord& round, float learning_rate,
                      std::string* why) {
  const std::size_t dim = round.before.cols();
  const auto by_row = ContributorsByRow(round.uploads);
  std::vector<float> column;
  for (std::size_t row = 0; row < round.before.rows(); ++row) {
    const auto found = by_row.find(row);
    if (found == by_row.end()) {
      if (std::memcmp(round.before.Row(row).data(), round.after.Row(row).data(),
                      dim * sizeof(float)) != 0) {
        if (why) *why = "untouched row " + std::to_string(row) + " changed";
        return false;
      }
      continue;
    }
    const auto& contributors = found->second;
    const std::size_t n = contributors.size();
    for (std::size_t d = 0; d < dim; ++d) {
      column.clear();
      for (const auto& [upload, slot] : contributors) {
        column.push_back(round.uploads[upload].values[slot * dim + d]);
      }
      std::sort(column.begin(), column.end());
      const double median =
          n % 2 == 1 ? static_cast<double>(column[n / 2])
                     : 0.5 * static_cast<double>(column[n / 2 - 1] +
                                                 column[n / 2]);
      const double aggregate =
          static_cast<float>(median * static_cast<double>(n));
      const double before = round.before.At(row, d);
      const double expected = before - learning_rate * aggregate;
      const double actual = round.after.At(row, d);
      const double tolerance =
          2.0 * FLT_EPSILON *
              (std::fabs(before) + std::fabs(learning_rate * aggregate)) +
          1e-30;
      if (std::fabs(actual - expected) > tolerance) {
        if (why) {
          std::ostringstream text;
          text << "row " << row << " dim " << d << ": model " << actual
               << ", recomputed " << expected;
          *why = text.str();
        }
        return false;
      }
    }
  }
  return true;
}

bool NudgeMedianInput(RoundRecord& round) {
  const auto by_row = ContributorsByRow(round.uploads);
  const std::size_t dim = round.before.cols();
  for (const auto& [row, contributors] : by_row) {
    if (contributors.size() != 1) continue;
    const auto [upload, slot] = contributors.front();
    round.uploads[upload].values[slot * dim] += 0.5f;
    return true;
  }
  return false;
}

// -- Bit identity -----------------------------------------------------------

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.size() * sizeof(float)) == 0;
}

Matrix FlipOneBit(const Matrix& m) {
  Matrix copy = m;
  if (copy.empty()) return copy;
  float& value = copy.Data()[copy.size() / 2];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&value, &bits, sizeof(bits));
  return copy;
}

// -- Sum-rule conservation --------------------------------------------------

ConservationModel ReplaySumRounds(
    const Matrix& initial, const std::vector<UploadCopy>& pool,
    const std::vector<std::vector<std::uint32_t>>& rounds,
    float learning_rate) {
  const std::size_t dim = initial.cols();
  const std::size_t num_items = initial.rows();
  ConservationModel model;
  model.dim = dim;
  model.expected.resize(num_items * dim);
  for (std::size_t i = 0; i < model.expected.size(); ++i) {
    model.expected[i] = initial.Data()[i];
  }
  model.tolerance.assign(num_items * dim, 0.0);
  model.touched.assign(num_items, 0);

  // Per-round scratch: the round's sum, absolute sum and contributor count
  // of every row it touches.
  std::vector<double> sum(num_items * dim, 0.0);
  std::vector<double> abs_sum(num_items * dim, 0.0);
  std::vector<std::uint32_t> count(num_items, 0);
  std::vector<std::size_t> touched;
  const double lr = learning_rate;
  for (const std::vector<std::uint32_t>& round : rounds) {
    touched.clear();
    for (std::uint32_t index : round) {
      const UploadCopy& upload = pool[index];
      for (std::size_t slot = 0; slot < upload.rows.size(); ++slot) {
        const std::size_t row = upload.rows[slot];
        if (count[row]++ == 0) touched.push_back(row);
        for (std::size_t d = 0; d < dim; ++d) {
          const double value = upload.values[slot * dim + d];
          sum[row * dim + d] += value;
          abs_sum[row * dim + d] += std::fabs(value);
        }
      }
    }
    for (std::size_t row : touched) {
      model.touched[row] = 1;
      const double contributors = count[row];
      for (std::size_t d = 0; d < dim; ++d) {
        const std::size_t i = row * dim + d;
        model.expected[i] -= lr * sum[i];
        // Float recursive summation of the round's contributors errs by at
        // most (n - 1) u sum|x|; the update v += -lr * agg adds one rounding
        // of the result. FLT_EPSILON = 2u doubles both bounds.
        model.tolerance[i] +=
            FLT_EPSILON * (std::fabs(model.expected[i]) +
                           lr * contributors * abs_sum[i]);
        sum[i] = 0.0;
        abs_sum[i] = 0.0;
      }
      count[row] = 0;
    }
  }
  return model;
}

bool CheckConservation(const ConservationModel& model, const Matrix& initial,
                       const Matrix& served, std::string* why) {
  const std::size_t dim = model.dim;
  for (std::size_t row = 0; row < served.rows(); ++row) {
    if (!model.touched[row]) {
      if (std::memcmp(initial.Row(row).data(), served.Row(row).data(),
                      dim * sizeof(float)) != 0) {
        if (why) *why = "untouched row " + std::to_string(row) + " changed";
        return false;
      }
      continue;
    }
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t i = row * dim + d;
      const double gap = std::fabs(served.At(row, d) - model.expected[i]);
      if (gap > model.tolerance[i] + 1e-30) {
        if (why) {
          std::ostringstream text;
          text << "row " << row << " dim " << d << ": served "
               << served.At(row, d) << ", replay " << model.expected[i]
               << ", bound " << model.tolerance[i];
          *why = text.str();
        }
        return false;
      }
    }
  }
  return true;
}

ConservationModel DropOneUpload(ConservationModel model,
                                const UploadCopy& upload,
                                float learning_rate) {
  const std::size_t dim = model.dim;
  for (std::size_t slot = 0; slot < upload.rows.size(); ++slot) {
    for (std::size_t d = 0; d < dim; ++d) {
      model.expected[upload.rows[slot] * dim + d] +=
          static_cast<double>(learning_rate) * upload.values[slot * dim + d];
    }
  }
  return model;
}

// -- Ack ledger -------------------------------------------------------------

bool CheckAckLedger(const std::vector<AckRecord>& acks,
                    const std::vector<std::uint64_t>& sent_per_client,
                    std::string* why) {
  std::vector<std::uint64_t> next(sent_per_client.size(), 0);
  for (const AckRecord& ack : acks) {
    if (ack.client >= next.size()) {
      if (why) *why = "ack for unknown client " + std::to_string(ack.client);
      return false;
    }
    if (ack.round != next[ack.client]) {
      if (why) {
        *why = "client " + std::to_string(ack.client) + " expected round " +
               std::to_string(next[ack.client]) + ", ack carried " +
               std::to_string(ack.round);
      }
      return false;
    }
    ++next[ack.client];
  }
  for (std::size_t c = 0; c < next.size(); ++c) {
    if (next[c] != sent_per_client[c]) {
      if (why) {
        *why = "client " + std::to_string(c) + " sent " +
               std::to_string(sent_per_client[c]) + " uploads, got " +
               std::to_string(next[c]) + " acks";
      }
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
