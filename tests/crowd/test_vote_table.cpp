// Unit tests for the grouped vote table (crowd/vote_table.hpp): first-seen
// task order, canonical orientation, batch order within a group, distinct
// workers in first-vote order, and the bucketed pair lookup.
#include "crowd/vote_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

TEST(VoteTable, GroupsTasksInFirstSeenOrderAndOrientsVotes) {
  const VoteBatch votes{
      Vote{0, 3, 1, true},   // task (1,3), prefers 3: not first
      Vote{1, 0, 2, true},   // task (0,2)
      Vote{2, 1, 3, true},   // task (1,3), prefers 1
      Vote{0, 2, 0, true},   // task (0,2), prefers 2: not first
      Vote{1, 3, 1, false},  // task (1,3), prefers 1
  };
  const VoteTable table(votes, 4, 3);

  ASSERT_EQ(table.task_count(), 2u);
  EXPECT_EQ(table.tasks()[0], (Edge{1, 3}));
  EXPECT_EQ(table.tasks()[1], (Edge{0, 2}));

  const auto first = table.task_votes(0);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].index, 0u);
  EXPECT_EQ(first[1].index, 2u);
  EXPECT_EQ(first[2].index, 4u);
  EXPECT_FALSE(first[0].first_preferred);
  EXPECT_TRUE(first[1].first_preferred);
  EXPECT_TRUE(first[2].first_preferred);
  const auto second = table.task_votes(1);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(second[0].first_preferred);
  EXPECT_FALSE(second[1].first_preferred);

  EXPECT_EQ(std::vector<WorkerId>(table.task_workers(0).begin(),
                                  table.task_workers(0).end()),
            (std::vector<WorkerId>{0, 2, 1}));
  EXPECT_EQ(std::vector<WorkerId>(table.task_workers(1).begin(),
                                  table.task_workers(1).end()),
            (std::vector<WorkerId>{1, 0}));
  EXPECT_EQ(table.slot_count(), 5u);

  // Worker 0's votes, in batch order: batch 0 then batch 3.
  const auto own = table.worker_votes(0);
  ASSERT_EQ(own.size(), 2u);
  EXPECT_EQ(own[0].task, 0u);
  EXPECT_FALSE(own[0].first_preferred);
  EXPECT_EQ(own[1].task, 1u);
  EXPECT_FALSE(own[1].first_preferred);
  EXPECT_EQ(table.worker_votes(2).size(), 1u);

  EXPECT_EQ(table.find(Edge{1, 3}), 0u);
  EXPECT_EQ(table.find(Edge{0, 2}), 1u);
  EXPECT_EQ(table.find(Edge{0, 1}), VoteTable::npos);
  EXPECT_EQ(table.find(Edge{9, 12}), VoteTable::npos);
}

TEST(VoteTable, OneTaskVotedByManyWorkersWithRepeats) {
  // Every worker answers the one task once in a shuffled order; a third
  // of them answer again later, some in the reversed spelling. The
  // worker list is the distinct voters in first-vote order, and each
  // worker's repeats share one slot.
  constexpr std::size_t kWorkers = 20000;
  Rng rng(17);
  std::vector<std::size_t> order = rng.permutation(kWorkers);
  VoteBatch votes;
  for (const std::size_t k : order) {
    votes.push_back(Vote{k, 0, 1, rng.bernoulli(0.7)});
  }
  rng.shuffle(order);
  for (std::size_t r = 0; r < kWorkers / 3; ++r) {
    const bool reversed = rng.bernoulli(0.5);
    votes.push_back(Vote{order[r], reversed ? 1u : 0u, reversed ? 0u : 1u,
                         rng.bernoulli(0.5)});
  }
  const VoteTable table(votes, 2, kWorkers);

  std::vector<WorkerId> expected;
  std::vector<bool> seen(kWorkers, false);
  for (const Vote& v : votes) {
    if (!seen[v.worker]) {
      seen[v.worker] = true;
      expected.push_back(v.worker);
    }
  }
  ASSERT_EQ(table.task_count(), 1u);
  const auto workers = table.task_workers(0);
  EXPECT_EQ(std::vector<WorkerId>(workers.begin(), workers.end()), expected);
  ASSERT_EQ(table.task_votes(0).size(), votes.size());
  for (std::size_t p = 0; p < votes.size(); ++p) {
    const TaskVote& v = table.task_votes(0)[p];
    EXPECT_EQ(v.index, p);
    EXPECT_EQ(workers[v.slot], votes[p].worker);
  }
}

TEST(VoteTable, RejectsOutOfRangeIdsAndAcceptsSelfPairs) {
  EXPECT_THROW(VoteTable({Vote{0, 0, 4, true}}, 4, 1), Error);
  EXPECT_THROW(VoteTable({Vote{1, 0, 1, true}}, 4, 1), Error);
  const VoteTable self({Vote{0, 2, 2, true}}, 4, 1);
  EXPECT_EQ(self.tasks(), (std::vector<Edge>{Edge{2, 2}}));
}

TEST(VoteTable, EmptyTables) {
  const VoteTable none;
  EXPECT_EQ(none.task_count(), 0u);
  EXPECT_EQ(none.worker_count(), 0u);
  EXPECT_EQ(none.find(Edge{0, 1}), VoteTable::npos);
  const VoteTable empty({}, 3, 2);
  EXPECT_EQ(empty.task_count(), 0u);
  EXPECT_EQ(empty.worker_count(), 2u);
  EXPECT_TRUE(empty.worker_votes(1).empty());
}

}  // namespace
}  // namespace crowdrank
