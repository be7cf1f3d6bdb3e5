// A vote batch grouped by task: the one flat table that input hardening
// (service/hardening), Step 1 (core/truth_discovery) and Step 2's worker
// wiring (core/pipeline) read.
//
// Everything is stored in CSR form — flat arrays plus offsets, no maps and
// no per-task or per-worker vectors:
//  * tasks():          the distinct canonical pairs (first <= second), in
//                      the order their first vote appears in the batch;
//  * task_votes(t):    every vote on tasks()[t], oriented to the canonical
//                      pair, in batch order;
//  * task_workers(t):  the distinct workers among them, in first-vote order;
//  * worker_votes(k):  worker k's votes, in batch order.
// find() looks a pair up in its first vertex's bucket of second vertices,
// kept ascending. Building takes two stable counting sorts over the
// votes, O(objects + workers + votes); no step is quadratic in the votes
// of one task or one worker.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "crowd/vote.hpp"
#include "graph/types.hpp"

namespace crowdrank {

/// One vote of a task group.
struct TaskVote {
  std::size_t index;     ///< position of the vote in the batch
  /// Position of this (task, worker) pair in the flat worker lists: all
  /// votes one worker cast on one task share a slot.
  std::size_t slot;
  WorkerId worker;
  bool first_preferred;  ///< the worker prefers its task's first object
};

/// One vote of a worker's list.
struct WorkerVote {
  std::size_t task;      ///< into VoteTable::tasks()
  bool first_preferred;  ///< the worker prefers tasks()[task].first
};

class VoteTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The empty table: no objects, workers or votes.
  VoteTable() = default;

  /// Groups `votes`. Object ids must be below `object_count` and worker
  /// ids below `worker_count` (throws crowdrank::Error otherwise); a
  /// self pair (i == j) is grouped like any other task.
  VoteTable(const VoteBatch& votes, std::size_t object_count,
            std::size_t worker_count);

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t worker_count() const { return worker_offsets_.size() - 1; }
  /// Number of distinct (task, worker) pairs: the slots of TaskVote.
  std::size_t slot_count() const { return workers_.size(); }

  const std::vector<Edge>& tasks() const { return tasks_; }
  /// All votes, grouped by task in tasks() order.
  std::span<const TaskVote> votes() const { return votes_; }
  std::span<const TaskVote> task_votes(std::size_t t) const {
    return range(votes_, task_offsets_, t);
  }
  std::span<const WorkerId> task_workers(std::size_t t) const {
    return range(workers_, worker_list_offsets_, t);
  }
  std::span<const WorkerVote> worker_votes(WorkerId k) const {
    return range(by_worker_, worker_offsets_, k);
  }

  /// The index into tasks() of a canonical pair, or npos when no vote
  /// names it.
  std::size_t find(const Edge& task) const;

 private:
  template <typename T>
  static std::span<const T> range(const std::vector<T>& items,
                                  const std::vector<std::size_t>& offsets,
                                  std::size_t k) {
    return {items.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }

  std::vector<Edge> tasks_;
  std::vector<std::size_t> task_offsets_{0};         // per task + 1
  std::vector<TaskVote> votes_;
  std::vector<std::size_t> worker_list_offsets_{0};  // per task + 1
  std::vector<WorkerId> workers_;
  std::vector<std::size_t> worker_offsets_{0};       // per worker + 1
  std::vector<WorkerVote> by_worker_;
  std::vector<std::size_t> bucket_{0};  // first vertex + 1, into seconds_
  std::vector<VertexId> seconds_;       // ascending within a bucket
  std::vector<std::size_t> bucket_task_;  // per seconds_ entry: its task
};

}  // namespace crowdrank
