// Unit tests for the input-hardening pass (service/hardening.hpp):
// every repair is applied, counted, and deterministic.
#include "service/hardening.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "crowd/vote.hpp"
#include "util/rng.hpp"

namespace crowdrank::service {
namespace {

/// Reference hardening on ordered maps, keyed by (worker, canonical
/// task), with the same drop rules, component tie-break and ascending
/// compaction as the flat-table pass. A vote naming an object >= n (kept
/// only with drop_out_of_range off) skips passes 2 and 3 and keeps its
/// object ids.
HardenedBatch reference_harden(const VoteBatch& votes,
                               std::size_t object_count,
                               const HardeningPolicy& policy,
                               HardeningReport& r) {
  r = HardeningReport{};
  r.input_votes = votes.size();
  std::size_t n = object_count;
  if (n == 0) {
    for (const Vote& v : votes) n = std::max({n, v.i + 1, v.j + 1});
  }
  r.requested_objects = n;
  const auto in_range = [n](const Vote& v) { return v.i < n && v.j < n; };

  VoteBatch kept;
  for (const Vote& v : votes) {
    if (policy.drop_out_of_range && !in_range(v)) {
      ++r.dropped_out_of_range;
    } else if (policy.drop_self_votes && v.i == v.j) {
      ++r.dropped_self;
    } else {
      kept.push_back(v);
    }
  }

  if (policy.drop_duplicates || policy.drop_conflicting) {
    std::map<std::pair<WorkerId, Edge>, unsigned> direction_mask;
    for (const Vote& v : kept) {
      if (!in_range(v)) continue;
      const Edge task = Edge::canonical(v.i, v.j);
      const bool first_preferred = v.prefers_i == (v.i == task.first);
      direction_mask[{v.worker, task}] |= first_preferred ? 1u : 2u;
    }
    std::map<std::pair<WorkerId, Edge>, bool> seen;
    VoteBatch deduped;
    for (const Vote& v : kept) {
      const auto key = std::make_pair(v.worker, Edge::canonical(v.i, v.j));
      if (in_range(v) && policy.drop_conflicting &&
          direction_mask[key] == 3u) {
        ++r.dropped_conflicting;
        continue;
      }
      if (in_range(v) && policy.drop_duplicates) {
        bool& already = seen[key];
        if (already) {
          ++r.dropped_duplicate;
          continue;
        }
        already = true;
      }
      deduped.push_back(v);
    }
    kept = std::move(deduped);
  }

  // Connectivity by repeated label propagation: each object's component
  // is the least object id reachable from it.
  std::vector<std::size_t> label(n);
  std::vector<bool> touched(n, false);
  for (std::size_t v = 0; v < n; ++v) label[v] = v;
  for (bool changed = true; changed;) {
    changed = false;
    for (const Vote& v : kept) {
      if (!in_range(v)) continue;
      touched[v.i] = touched[v.j] = true;
      const std::size_t least = std::min(label[v.i], label[v.j]);
      changed = changed || label[v.i] != least || label[v.j] != least;
      label[v.i] = label[v.j] = least;
    }
  }
  std::map<std::size_t, std::size_t> component_size;
  for (std::size_t v = 0; v < n; ++v) {
    if (touched[v]) ++component_size[label[v]];
  }
  r.component_count = component_size.size();
  std::size_t best_root = n;
  std::size_t best_size = 0;
  for (const auto& [root, size] : component_size) {
    if (size > best_size) {
      best_root = root;
      best_size = size;
    }
  }
  std::vector<bool> retained(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    retained[v] = touched[v] && (!policy.restrict_to_largest_component ||
                                 label[v] == best_root);
  }
  if (policy.restrict_to_largest_component) {
    VoteBatch connected;
    for (const Vote& v : kept) {
      if (in_range(v) && retained[v.i] && retained[v.j]) {
        connected.push_back(v);
      } else {
        ++r.dropped_disconnected;
      }
    }
    kept = std::move(connected);
  }

  HardenedBatch batch;
  std::map<VertexId, VertexId> object_map;
  for (std::size_t v = 0; v < n; ++v) {
    if (retained[v]) {
      object_map[v] = batch.objects.size();
      batch.objects.push_back(v);
    } else {
      r.excluded_objects.push_back(v);
    }
  }
  std::map<WorkerId, WorkerId> worker_map;
  for (const Vote& v : kept) worker_map.emplace(v.worker, 0);
  for (auto& [original, compact] : worker_map) {
    compact = batch.workers.size();
    batch.workers.push_back(original);
  }
  const auto object_id = [&](VertexId v) {
    return v < n && retained[v] ? object_map.at(v) : n;
  };
  for (const Vote& v : kept) {
    batch.votes.push_back(Vote{worker_map.at(v.worker), object_id(v.i),
                               object_id(v.j), v.prefers_i});
  }
  r.retained_votes = batch.votes.size();
  return batch;
}

/// All-pairs consistent batch: every worker prefers lower ids.
VoteBatch clean_batch(std::size_t n, std::size_t workers) {
  VoteBatch votes;
  for (WorkerId w = 0; w < workers; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }
  return votes;
}

TEST(HardeningTest, CleanBatchPassesThroughUntouched) {
  const VoteBatch votes = clean_batch(5, 3);
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 5, {}, &report);

  EXPECT_TRUE(batch.usable());
  EXPECT_EQ(batch.votes, votes);  // ids already dense: identity remap
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batch.workers, (std::vector<WorkerId>{0, 1, 2}));
  EXPECT_FALSE(report.repaired());
  EXPECT_TRUE(report.full_coverage());
  EXPECT_EQ(report.retained_votes, votes.size());
  EXPECT_EQ(report.component_count, 1u);
}

TEST(HardeningTest, DropsOutOfRangeAndSelfVotes) {
  VoteBatch votes = clean_batch(4, 2);
  votes.push_back(Vote{0, 0, 9, true});  // unknown object
  votes.push_back(Vote{1, 7, 0, true});  // unknown object
  votes.push_back(Vote{0, 2, 2, true});  // self comparison
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 4, {}, &report);

  EXPECT_EQ(report.dropped_out_of_range, 2u);
  EXPECT_EQ(report.dropped_self, 1u);
  EXPECT_EQ(batch.votes.size(), votes.size() - 3);
  EXPECT_TRUE(report.full_coverage());
}

TEST(HardeningTest, DropsDuplicatesKeepingFirstOccurrence) {
  VoteBatch votes = clean_batch(3, 1);
  votes.push_back(Vote{0, 0, 1, true});  // repeat of the first answer
  votes.push_back(Vote{0, 1, 0, false});  // same answer, flipped spelling
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, {}, &report);

  EXPECT_EQ(report.dropped_duplicate, 2u);
  EXPECT_EQ(batch.votes.size(), clean_batch(3, 1).size());
}

TEST(HardeningTest, ConflictingAnswersDropAllVotesOnThatTask) {
  VoteBatch votes = clean_batch(3, 2);
  // Worker 0 contradicts their own (0,1) answer.
  votes.push_back(Vote{0, 0, 1, false});
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, {}, &report);

  // Both directions of worker 0's (0,1) answers are gone; worker 1's
  // votes survive, so connectivity and coverage are intact.
  EXPECT_EQ(report.dropped_conflicting, 2u);
  EXPECT_EQ(batch.votes.size(), votes.size() - 2);
  EXPECT_TRUE(report.full_coverage());
}

TEST(HardeningTest, RestrictsToLargestComponentAndCompacts) {
  // Island A = {0,1,2} (two workers), island B = {5,6} (one worker);
  // object 3 and 4 are never compared at all.
  VoteBatch votes;
  for (WorkerId w = 0; w < 2; ++w) {
    votes.push_back(Vote{w, 0, 1, true});
    votes.push_back(Vote{w, 1, 2, true});
  }
  votes.push_back(Vote{7, 5, 6, true});
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 7, {}, &report);

  EXPECT_EQ(report.component_count, 2u);
  EXPECT_EQ(report.dropped_disconnected, 1u);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(report.excluded_objects, (std::vector<VertexId>{3, 4, 5, 6}));
  // Worker ids are compacted in ascending order of the original id.
  EXPECT_EQ(batch.workers, (std::vector<WorkerId>{0, 1}));
  for (const Vote& v : batch.votes) {
    EXPECT_LT(v.i, batch.objects.size());
    EXPECT_LT(v.j, batch.objects.size());
    EXPECT_LT(v.worker, batch.workers.size());
  }
}

TEST(HardeningTest, LargestComponentTieBreaksTowardSmallestMember) {
  // Two components of equal size; {0,1} must win over {2,3}.
  VoteBatch votes{Vote{0, 2, 3, true}, Vote{0, 0, 1, true}};
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 4, {}, &report);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(report.excluded_objects, (std::vector<VertexId>{2, 3}));
}

TEST(HardeningTest, DerivesObjectUniverseFromVoteIds) {
  VoteBatch votes{Vote{0, 3, 7, true}, Vote{0, 7, 3, false}};
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 0, {}, &report);
  EXPECT_EQ(report.requested_objects, 8u);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{3, 7}));
  // The flipped spelling is the same answer: one duplicate dropped.
  EXPECT_EQ(report.dropped_duplicate, 1u);
  EXPECT_TRUE(batch.usable());
}

TEST(HardeningTest, EmptyAndUnusableBatches) {
  HardeningReport report;
  EXPECT_FALSE(harden_votes({}, 5, {}, &report).usable());
  EXPECT_EQ(report.retained_votes, 0u);

  // Only self votes: nothing usable survives.
  const VoteBatch selfs{Vote{0, 1, 1, true}, Vote{1, 2, 2, false}};
  EXPECT_FALSE(harden_votes(selfs, 5, {}, &report).usable());
  EXPECT_EQ(report.dropped_self, 2u);
}

TEST(HardeningTest, PolicySwitchesDisableIndividualRepairs) {
  VoteBatch votes = clean_batch(3, 1);
  votes.push_back(Vote{0, 0, 1, true});  // duplicate
  HardeningPolicy policy;
  policy.drop_duplicates = false;
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, policy, &report);
  EXPECT_EQ(report.dropped_duplicate, 0u);
  EXPECT_EQ(batch.votes.size(), votes.size());
}

TEST(HardeningTest, DeterministicAcrossRepeatedRuns) {
  VoteBatch votes = clean_batch(6, 3);
  votes.push_back(Vote{0, 0, 11, true});
  votes.push_back(Vote{2, 4, 4, true});
  votes.push_back(Vote{1, 0, 1, false});  // conflict with clean batch
  HardeningReport first_report;
  const HardenedBatch first = harden_votes(votes, 6, {}, &first_report);
  HardeningReport second_report;
  const HardenedBatch second = harden_votes(votes, 6, {}, &second_report);
  EXPECT_EQ(first.votes, second.votes);
  EXPECT_EQ(first.objects, second.objects);
  EXPECT_EQ(first.workers, second.workers);
  EXPECT_EQ(first_report.excluded_objects, second_report.excluded_objects);
}

/// A messy batch: two islands of objects, duplicates, both-direction
/// conflicts, reversed spellings of earlier answers, self and
/// out-of-range votes, and worker ids near 2^64.
VoteBatch messy_batch(Rng& rng, std::size_t n) {
  constexpr WorkerId kTop = std::numeric_limits<WorkerId>::max();
  const std::vector<WorkerId> pool{0, 1, 2, 7, kTop, kTop - 1, kTop - 5};
  const std::size_t island = n / 2;  // objects [0, island) and [island, n)
  VoteBatch votes;
  const std::size_t count = 5 + rng.uniform_index(40);
  for (std::size_t k = 0; k < count; ++k) {
    const double kind = rng.uniform();
    if (!votes.empty() && kind < 0.3) {
      // Revisit an earlier answer: repeat it, reverse its spelling, or
      // contradict it.
      Vote v = votes[rng.uniform_index(votes.size())];
      const double how = rng.uniform();
      if (how < 0.4) {
        std::swap(v.i, v.j);
        v.prefers_i = !v.prefers_i;
      } else if (how < 0.7) {
        v.prefers_i = !v.prefers_i;
      }
      votes.push_back(v);
      continue;
    }
    const WorkerId worker = pool[rng.uniform_index(pool.size())];
    VertexId i;
    VertexId j;
    if (kind < 0.35) {
      i = j = rng.uniform_index(n);  // self vote
    } else if (kind < 0.42) {
      i = rng.uniform_index(n);
      j = rng.bernoulli(0.5) ? n + rng.uniform_index(3)
                             : std::numeric_limits<VertexId>::max() - 1;
    } else {
      const bool left = rng.bernoulli(0.6) || island == n;
      const VertexId lo = left ? 0 : island;
      const VertexId span = left ? std::max<VertexId>(island, 1) : n - island;
      i = lo + rng.uniform_index(span);
      j = lo + rng.uniform_index(span);
    }
    votes.push_back(Vote{worker, i, j, rng.bernoulli(0.5)});
  }
  return votes;
}

TEST(HardeningTest, MatchesTheMapReferenceOnMessyBatches) {
  Rng rng(2024);
  HardeningReport seen;  // totals: every kind of repair must occur
  std::size_t islands = 0;
  std::size_t top_workers = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 2 + rng.uniform_index(9);
    const VoteBatch votes = messy_batch(rng, n);
    for (unsigned mask = 0; mask < 32; ++mask) {
      const HardeningPolicy policy{(mask & 1u) != 0, (mask & 2u) != 0,
                                   (mask & 4u) != 0, (mask & 8u) != 0,
                                   (mask & 16u) != 0};
      // The hint n puts some votes out of range; without a hint the
      // universe grows to cover them, unless one names a huge id.
      for (const std::size_t hint : {n, std::size_t{0}}) {
        const bool huge = std::any_of(votes.begin(), votes.end(),
                                      [n](const Vote& v) {
                                        return v.i > 2 * n || v.j > 2 * n;
                                      });
        if (hint == 0 && huge) continue;
        HardeningReport expected_report;
        const HardenedBatch expected =
            reference_harden(votes, hint, policy, expected_report);
        HardeningReport report;
        const HardenedBatch batch = harden_votes(votes, hint, policy, &report);
        SCOPED_TRACE(testing::Message() << "round " << round << " policy "
                                        << mask << " hint " << hint);
        EXPECT_EQ(batch.votes, expected.votes);
        EXPECT_EQ(batch.objects, expected.objects);
        EXPECT_EQ(batch.workers, expected.workers);
        EXPECT_EQ(report, expected_report);
        seen.dropped_out_of_range += report.dropped_out_of_range;
        seen.dropped_self += report.dropped_self;
        seen.dropped_duplicate += report.dropped_duplicate;
        seen.dropped_conflicting += report.dropped_conflicting;
        seen.dropped_disconnected += report.dropped_disconnected;
        islands += report.component_count > 1;
        top_workers += !batch.workers.empty() &&
                       batch.workers.back() > (WorkerId{1} << 63);
      }
    }
  }
  EXPECT_GT(seen.dropped_out_of_range, 0u);
  EXPECT_GT(seen.dropped_self, 0u);
  EXPECT_GT(seen.dropped_duplicate, 0u);
  EXPECT_GT(seen.dropped_conflicting, 0u);
  EXPECT_GT(seen.dropped_disconnected, 0u);
  EXPECT_GT(islands, 0u);
  EXPECT_GT(top_workers, 0u);
}

}  // namespace
}  // namespace crowdrank::service
