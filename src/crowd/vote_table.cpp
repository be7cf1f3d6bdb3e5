#include "crowd/vote_table.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace crowdrank {

namespace {

/// CSR offsets of `count` items over `keys` rows: row k's items are
/// [offsets[k], offsets[k + 1]), with key(p) the row of item p.
template <typename Key>
std::vector<std::size_t> offsets_by(std::size_t count, std::size_t keys,
                                    Key key) {
  std::vector<std::size_t> offsets(keys + 1, 0);
  for (std::size_t p = 0; p < count; ++p) ++offsets[key(p) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

/// Stable counting sort of the batch positions item(0..count) by key(p),
/// which must lie below `keys`.
template <typename Item, typename Key>
std::vector<std::size_t> counting_sort(std::size_t count, std::size_t keys,
                                       Item item, Key key) {
  std::vector<std::size_t> start = offsets_by(
      count, keys, [&](std::size_t k) { return key(item(k)); });
  std::vector<std::size_t> sorted(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = item(k);
    sorted[start[key(p)]++] = p;
  }
  return sorted;
}

}  // namespace

VoteTable::VoteTable(const VoteBatch& votes, std::size_t object_count,
                     std::size_t worker_count) {
  const std::size_t count = votes.size();
  std::vector<Edge> pair(count);
  for (std::size_t p = 0; p < count; ++p) {
    const Vote& v = votes[p];
    CR_EXPECTS(v.i < object_count && v.j < object_count,
               "vote references an out-of-range object");
    CR_EXPECTS(v.worker < worker_count,
               "vote references an out-of-range worker");
    pair[p] = Edge::canonical(v.i, v.j);
  }

  // Sorted by second vertex, then stably by first: the votes in pair
  // order, batch order within a pair. Each run of equal pairs is a task;
  // its first entry is the task's first vote.
  const std::vector<std::size_t> by_second = counting_sort(
      count, object_count, [](std::size_t k) { return k; },
      [&](std::size_t p) { return pair[p].second; });
  const std::vector<std::size_t> order = counting_sort(
      count, object_count, [&](std::size_t k) { return by_second[k]; },
      [&](std::size_t p) { return pair[p].first; });
  std::vector<std::size_t> task_of(count);  // per vote: its run, then task
  std::vector<std::size_t> run_first;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = order[k];
    if (k == 0 || pair[order[k - 1]] != pair[p]) {
      seconds_.push_back(pair[p].second);
      run_first.push_back(p);
    }
    task_of[p] = seconds_.size() - 1;
  }
  bucket_ = offsets_by(run_first.size(), object_count, [&](std::size_t r) {
    return pair[run_first[r]].first;
  });

  // Number the tasks in first-seen order.
  bucket_task_.resize(seconds_.size());
  tasks_.reserve(seconds_.size());
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t run = task_of[p];
    if (run_first[run] == p) {
      bucket_task_[run] = tasks_.size();
      tasks_.push_back(pair[p]);
    }
    task_of[p] = bucket_task_[run];
  }

  // Group the votes by task and by worker, batch order within a group.
  task_offsets_ = offsets_by(count, tasks_.size(),
                             [&](std::size_t p) { return task_of[p]; });
  worker_offsets_ = offsets_by(
      count, worker_count, [&](std::size_t p) { return votes[p].worker; });
  votes_.resize(count);
  by_worker_.resize(count);
  std::vector<std::size_t> task_fill(task_offsets_);
  std::vector<std::size_t> worker_fill(worker_offsets_);
  for (std::size_t p = 0; p < count; ++p) {
    const Vote& v = votes[p];
    const std::size_t t = task_of[p];
    // prefers_i refers to v.i; flip when canonicalization swapped the pair.
    const bool first_preferred =
        (v.i == tasks_[t].first) ? v.prefers_i : !v.prefers_i;
    votes_[task_fill[t]++] = TaskVote{p, 0, v.worker, first_preferred};
    by_worker_[worker_fill[v.worker]++] = WorkerVote{t, first_preferred};
  }

  // Each task's distinct workers. slot_of[k] is worker k's latest slot;
  // one that predates the current task's list means k is new to it.
  std::vector<std::size_t> slot_of(worker_count, npos);
  workers_.reserve(count);
  worker_list_offsets_.reserve(tasks_.size() + 1);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const std::size_t start = workers_.size();
    for (std::size_t q = task_offsets_[t]; q < task_offsets_[t + 1]; ++q) {
      TaskVote& v = votes_[q];
      std::size_t& slot = slot_of[v.worker];
      if (slot == npos || slot < start) {
        slot = workers_.size();
        workers_.push_back(v.worker);
      }
      v.slot = slot;
    }
    worker_list_offsets_.push_back(workers_.size());
  }
}

std::size_t VoteTable::find(const Edge& task) const {
  if (task.first >= bucket_.size() - 1) {
    return npos;
  }
  const auto begin =
      seconds_.begin() + static_cast<std::ptrdiff_t>(bucket_[task.first]);
  const auto end =
      seconds_.begin() + static_cast<std::ptrdiff_t>(bucket_[task.first + 1]);
  const auto it = std::lower_bound(begin, end, task.second);
  return it != end && *it == task.second
             ? bucket_task_[static_cast<std::size_t>(it - seconds_.begin())]
             : npos;
}

}  // namespace crowdrank
