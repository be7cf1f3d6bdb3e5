#include "service/hardening.hpp"

#include <algorithm>
#include <utility>

#include "crowd/vote_table.hpp"

namespace crowdrank::service {

namespace {

/// Union-find over object ids, used for the component restriction.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    // Smaller root wins so the representative is the least member id —
    // this keeps the largest-component tie-break deterministic.
    if (b < a) {
      std::swap(a, b);
    }
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Pass 3's objects: those the kept in-range votes touch, restricted when
/// `largest_only` to the largest component (ties toward the component
/// holding the least object id). Counts the components into
/// `component_count`. The union-find and the component sizes are freed on
/// return, before compaction allocates its per-object arrays.
std::vector<bool> retained_objects(const VoteBatch& votes,
                                   const std::vector<char>& keep,
                                   std::size_t n, bool largest_only,
                                   std::size_t& component_count) {
  DisjointSets sets(n);
  std::vector<bool> touched(n, false);
  for (std::size_t p = 0; p < votes.size(); ++p) {
    const Vote& v = votes[p];
    if (keep[p] && v.i < n && v.j < n) {
      sets.unite(v.i, v.j);
      touched[v.i] = true;
      touched[v.j] = true;
    }
  }
  std::vector<std::size_t> component_size(n, 0);  // by root
  for (std::size_t v = 0; v < n; ++v) {
    if (touched[v]) {
      ++component_size[sets.find(v)];
    }
  }
  std::size_t best_root = n;
  std::size_t best_size = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (component_size[root] == 0) {
      continue;
    }
    ++component_count;
    if (component_size[root] > best_size) {  // first max by ascending root
      best_root = root;
      best_size = component_size[root];
    }
  }
  std::vector<bool> retained(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    retained[v] = touched[v] && (!largest_only || sets.find(v) == best_root);
  }
  return retained;
}

}  // namespace

HardenedBatch harden_votes(const VoteBatch& votes, std::size_t object_count,
                           const HardeningPolicy& policy,
                           HardeningReport* report) {
  HardeningReport local;
  HardeningReport& r = report != nullptr ? *report : local;
  r = HardeningReport{};
  r.input_votes = votes.size();

  // Resolve the object universe: the caller's hint, or the highest id
  // mentioned by any vote.
  std::size_t n = object_count;
  if (n == 0) {
    for (const Vote& v : votes) {
      n = std::max({n, v.i + 1, v.j + 1});
    }
  }
  r.requested_objects = n;
  const auto in_range = [n](const Vote& v) { return v.i < n && v.j < n; };

  // Pass 1 — per-vote filters: out-of-range and self votes. With
  // drop_out_of_range off, a vote naming an object >= n survives but
  // skips passes 2 and 3: it joins no component, and compaction rewrites
  // each object it names outside the retained set to n, an id no compact
  // object has, so the engine rejects it unless the component restriction
  // drops it first.
  std::vector<char> keep(votes.size(), 0);  // per input vote
  std::vector<WorkerId> workers;            // distinct survivors, ascending
  workers.reserve(votes.size());
  for (std::size_t p = 0; p < votes.size(); ++p) {
    const Vote& v = votes[p];
    if (policy.drop_out_of_range && !in_range(v)) {
      ++r.dropped_out_of_range;
      continue;
    }
    if (policy.drop_self_votes && v.i == v.j) {
      ++r.dropped_self;
      continue;
    }
    keep[p] = 1;
    workers.push_back(v.worker);
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());

  std::vector<std::size_t> rank(votes.size(), 0);  // dense, per input vote
  for (std::size_t p = 0; p < votes.size(); ++p) {
    if (keep[p]) {
      rank[p] = static_cast<std::size_t>(
          std::lower_bound(workers.begin(), workers.end(), votes[p].worker) -
          workers.begin());
    }
  }

  // Pass 2 — per-(worker, task) repairs over the in-range survivors,
  // grouped by task on dense worker ranks: one table slot per (task,
  // worker) pair. A worker answering the same task in both directions
  // contradicts themselves: all their votes on that task are dropped.
  // Repeated same-direction answers keep only the first occurrence.
  // Directions are relative to the canonical pair, so (i,j,prefers_i) and
  // (j,i,!prefers_i) count as one direction.
  if (policy.drop_duplicates || policy.drop_conflicting) {
    VoteBatch ranked;
    std::vector<std::size_t> source;  // table batch position -> input
    ranked.reserve(votes.size());
    source.reserve(votes.size());
    for (std::size_t p = 0; p < votes.size(); ++p) {
      const Vote& v = votes[p];
      if (keep[p] && in_range(v)) {
        ranked.push_back(Vote{rank[p], v.i, v.j, v.prefers_i});
        source.push_back(p);
      }
    }
    const VoteTable table(ranked, n, workers.size());
    constexpr unsigned char kFirst = 1, kSecond = 2, kBoth = 3, kSeen = 4;
    std::vector<unsigned char> slot(table.slot_count(), 0);
    for (const TaskVote& v : table.votes()) {
      slot[v.slot] |= v.first_preferred ? kFirst : kSecond;
    }
    for (const TaskVote& v : table.votes()) {
      unsigned char& state = slot[v.slot];
      if (policy.drop_conflicting && (state & kBoth) == kBoth) {
        ++r.dropped_conflicting;
        keep[source[v.index]] = 0;
      } else if (policy.drop_duplicates && (state & kSeen) != 0) {
        ++r.dropped_duplicate;
        keep[source[v.index]] = 0;
      } else {
        state |= kSeen;
      }
    }
  }

  // Pass 3 — connectivity: a ranking can only relate objects connected by
  // evidence (smoothing makes every retained edge bidirectional, so
  // undirected connectivity is the right reachability notion). Restrict
  // to the largest component; ties break toward the component containing
  // the smallest object id.
  const std::vector<bool> retained_object = retained_objects(
      votes, keep, n, policy.restrict_to_largest_component,
      r.component_count);
  if (policy.restrict_to_largest_component) {
    for (std::size_t p = 0; p < votes.size(); ++p) {
      const Vote& v = votes[p];
      if (keep[p] && !(in_range(v) && retained_object[v.i] &&
                       retained_object[v.j])) {
        keep[p] = 0;
        ++r.dropped_disconnected;
      }
    }
  }

  // Compaction: rewrite object and worker ids onto dense ascending
  // ranges. Worker identity does not survive into the ranking, so the
  // remap is invisible to callers; the report keeps the original ids.
  HardenedBatch batch;
  std::vector<VertexId> object_map(n, n);
  for (std::size_t v = 0; v < n; ++v) {
    if (retained_object[v]) {
      object_map[v] = batch.objects.size();
      batch.objects.push_back(v);
    } else {
      r.excluded_objects.push_back(v);
    }
  }
  std::vector<char> used(workers.size(), 0);  // per rank
  for (std::size_t p = 0; p < votes.size(); ++p) {
    if (keep[p]) {
      used[rank[p]] = 1;
    }
  }
  std::vector<WorkerId> worker_map(workers.size(), 0);  // rank -> compact
  for (std::size_t k = 0; k < workers.size(); ++k) {
    if (used[k]) {
      worker_map[k] = batch.workers.size();
      batch.workers.push_back(workers[k]);
    }
  }
  const auto object_id = [&](VertexId v) {
    return v < n ? object_map[v] : n;
  };
  batch.votes.reserve(
      static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1)));
  for (std::size_t p = 0; p < votes.size(); ++p) {
    const Vote& v = votes[p];
    if (keep[p]) {
      batch.votes.push_back(Vote{worker_map[rank[p]],
                                 object_id(v.i), object_id(v.j),
                                 v.prefers_i});
    }
  }
  r.retained_votes = batch.votes.size();
  return batch;
}

}  // namespace crowdrank::service
