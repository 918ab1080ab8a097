#include "pgas/checker.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace simcov::pgas {

const char* collective_op_name(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kNone: return "<none>";
    case CollectiveOp::kSum: return "allreduce_sum";
    case CollectiveOp::kMax: return "allreduce_max";
    case CollectiveOp::kXor: return "allreduce_xor";
    case CollectiveOp::kBroadcast: return "broadcast";
  }
  return "<invalid>";
}

DisciplineChecker::DisciplineChecker(int num_ranks)
    : num_ranks_(num_ranks),
      epochs_(static_cast<std::size_t>(num_ranks)),
      targets_(static_cast<std::size_t>(num_ranks)),
      collectives_(static_cast<std::size_t>(num_ranks)) {
  SIMCOV_REQUIRE(num_ranks >= 1, "checker needs at least one rank");
}

DisciplineChecker::~DisciplineChecker() = default;

void DisciplineChecker::on_barrier(RankId rank) {
  epochs_[static_cast<std::size_t>(rank)].fetch_add(
      1, std::memory_order_relaxed);
}

void DisciplineChecker::on_put(RankId source, RankId target, int channel,
                               std::size_t offset, std::size_t len) {
  const std::uint64_t src_epoch =
      epochs_[static_cast<std::size_t>(source)].load(std::memory_order_relaxed);
  const std::uint64_t dst_epoch =
      epochs_[static_cast<std::size_t>(target)].load(std::memory_order_relaxed);
  // Records older than the previous epoch can never match a future read or
  // put again (epochs only grow), so pruning here bounds memory to roughly
  // two epochs of traffic per channel.
  const std::uint64_t keep_from =
      std::min(src_epoch, dst_epoch) == 0 ? 0 : std::min(src_epoch, dst_epoch) - 1;

  TargetState& ts = targets_[static_cast<std::size_t>(target)];
  std::lock_guard<std::mutex> lock(ts.mutex);

  auto& records = ts.puts[channel];
  std::erase_if(records,
                [keep_from](const PutRecord& r) { return r.epoch < keep_from; });

  for (const PutRecord& r : records) {
    if (r.epoch != src_epoch || r.source == source) continue;
    const bool overlap = offset < r.offset + r.len && r.offset < offset + len;
    if (!overlap) continue;
    std::ostringstream os;
    os << "conflicting-puts: ranks " << std::min(r.source, source) << " and "
       << std::max(r.source, source) << " both put overlapping byte ranges ["
       << r.offset << "," << r.offset + r.len << ") and [" << offset << ","
       << offset + len << ") into rank " << target << " channel " << channel
       << " in epoch " << src_epoch
       << " — conflicting writers must be barrier-separated (or resolved by "
          "a bid protocol before the put)";
    record_violation(os.str());
  }

  // The owner read this channel in the putting rank's epoch: same race as an
  // unbarriered read, just with the other temporal order.
  auto read_it = ts.read_epochs.find(channel);
  if (read_it != ts.read_epochs.end() && read_it->second == src_epoch) {
    std::ostringstream os;
    os << "unbarriered-read: rank " << source << " put [" << offset << ","
       << offset + len << ") into rank " << target << " channel " << channel
       << " in epoch " << src_epoch
       << ", which rank " << target
       << " already read in the same epoch — puts and channel reads must be "
          "separated by a barrier";
    record_violation(os.str());
  }

  records.push_back(PutRecord{src_epoch, source, offset, len});
}

void DisciplineChecker::on_channel_read(RankId reader, int channel) {
  const std::uint64_t epoch =
      epochs_[static_cast<std::size_t>(reader)].load(std::memory_order_relaxed);
  TargetState& ts = targets_[static_cast<std::size_t>(reader)];
  std::lock_guard<std::mutex> lock(ts.mutex);

  auto it = ts.puts.find(channel);
  if (it != ts.puts.end()) {
    for (const PutRecord& r : it->second) {
      if (r.epoch != epoch) continue;
      std::ostringstream os;
      os << "unbarriered-read: rank " << reader << " read channel " << channel
         << " in epoch " << epoch << ", which also received a put of ["
         << r.offset << "," << r.offset + r.len << ") from rank " << r.source
         << " in the same epoch — insert a barrier between the exchange and "
            "the read";
      record_violation(os.str());
    }
  }

  auto [rit, inserted] = ts.read_epochs.try_emplace(channel, epoch);
  if (!inserted) rit->second = std::max(rit->second, epoch);
}

void DisciplineChecker::on_collective_enter(RankId rank, CollectiveOp op,
                                            std::size_t count) {
  CollectiveMeta& m = collectives_[static_cast<std::size_t>(rank)];
  m.op.store(op, std::memory_order_relaxed);
  m.count.store(count, std::memory_order_relaxed);
  m.epoch.store(epochs_[static_cast<std::size_t>(rank)].load(
                    std::memory_order_relaxed),
                std::memory_order_relaxed);
  m.seq.fetch_add(1, std::memory_order_relaxed);
}

bool DisciplineChecker::on_collective_verify(RankId rank) {
  const CollectiveMeta& mine = collectives_[static_cast<std::size_t>(rank)];
  const std::uint64_t my_seq = mine.seq.load(std::memory_order_relaxed);
  const CollectiveOp my_op = mine.op.load(std::memory_order_relaxed);
  const std::uint64_t my_count = mine.count.load(std::memory_order_relaxed);
  const std::uint64_t my_epoch = mine.epoch.load(std::memory_order_relaxed);

  bool all_matched = true;
  for (int r = 0; r < num_ranks_; ++r) {
    if (r == rank) continue;
    const CollectiveMeta& other = collectives_[static_cast<std::size_t>(r)];
    const std::uint64_t o_seq = other.seq.load(std::memory_order_relaxed);
    const CollectiveOp o_op = other.op.load(std::memory_order_relaxed);
    const std::uint64_t o_count = other.count.load(std::memory_order_relaxed);
    const std::uint64_t o_epoch = other.epoch.load(std::memory_order_relaxed);
    if (o_seq == my_seq && o_op == my_op && o_count == my_count &&
        o_epoch == my_epoch) {
      continue;
    }
    all_matched = false;

    // Canonical message (lower rank first) so both observers deduplicate to
    // a single report.
    const bool swap = r < rank;
    const int rank_a = swap ? r : rank;
    const int rank_b = swap ? rank : r;
    const auto desc = [](CollectiveOp op, std::uint64_t count,
                         std::uint64_t seq, std::uint64_t epoch) {
      std::ostringstream d;
      d << collective_op_name(op) << "(len " << count << ") as collective #"
        << seq << " after " << epoch << " barrier(s)";
      return d.str();
    };
    const std::string mine_desc = desc(my_op, my_count, my_seq, my_epoch);
    const std::string other_desc = desc(o_op, o_count, o_seq, o_epoch);
    std::ostringstream os;
    os << "collective-mismatch: rank " << rank_a << " called "
       << (swap ? other_desc : mine_desc) << " but rank " << rank_b
       << " called " << (swap ? mine_desc : other_desc)
       << " — collectives must be entered by every rank with identical "
          "operation and shape";
    record_violation(os.str());
  }
  return all_matched;
}

void DisciplineChecker::on_job_end(RankId rank, std::size_t queued_rpcs) {
  if (queued_rpcs == 0) return;
  std::ostringstream os;
  os << "undrained-rpcs: rank " << rank << " finished the job with "
     << queued_rpcs
     << " RPC(s) still queued — every phase that issues RPCs must end with "
        "rpc_quiescence() (or the target must call progress())";
  record_violation(os.str());
}

void DisciplineChecker::record_violation(const std::string& message) {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  ++total_violations_;
  if (violations_.size() >= kMaxRecordedViolations) return;
  if (std::find(violations_.begin(), violations_.end(), message) !=
      violations_.end()) {
    return;
  }
  violations_.push_back(message);
}

bool DisciplineChecker::clean() const {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  return total_violations_ == 0;
}

std::uint64_t DisciplineChecker::violation_count() const {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  return total_violations_;
}

std::string DisciplineChecker::report() const {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  if (total_violations_ == 0) return "";
  std::ostringstream os;
  os << "[pgas-check] PGAS discipline check failed: " << total_violations_
     << " violation(s), " << violations_.size() << " unique:";
  for (const auto& v : violations_) os << "\n  - " << v;
  if (total_violations_ > violations_.size()) {
    os << "\n  (further duplicates/overflow suppressed)";
  }
  return os.str();
}

}  // namespace simcov::pgas
