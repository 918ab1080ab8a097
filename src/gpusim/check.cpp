#include "gpusim/check.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace simcov::gpusim {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string who_str(std::uint32_t block, std::uint32_t thread,
                    std::uint32_t phase) {
  std::ostringstream os;
  os << "(block " << block << ", thread ";
  if (thread == 0xFFFFFFFFu) {
    os << "<block-driver>";
  } else {
    os << thread;
  }
  os << ", phase " << phase << ")";
  return os.str();
}

}  // namespace

std::vector<std::uint64_t> seeded_permutation(std::uint64_t seed,
                                              std::uint64_t n) {
  std::vector<std::uint64_t> perm(n);
  for (std::uint64_t i = 0; i < n; ++i) perm[i] = i;
  std::uint64_t state = seed ^ 0xd1b54a32d192ed03ULL;
  for (std::uint64_t i = n; i > 1; --i) {
    std::uint64_t j = splitmix64(state) % i;
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

KernelChecker::KernelChecker(const KernelCheckOptions& opts) : opts_(opts) {}

void KernelChecker::register_buffer(void* data, std::size_t bytes,
                                    std::size_t elem_size, const char* name) {
  if (data == nullptr) return;  // zero-element buffers have no storage
  registry_[data] = BufferInfo{data, bytes, elem_size, name};
}

void KernelChecker::unregister_buffer(const void* data) {
  if (data == nullptr) return;
  registry_.erase(data);
  global_shadow_.erase(data);
  if (cached_key_ == data) {
    cached_key_ = nullptr;
    cached_shadow_ = nullptr;
  }
}

void KernelChecker::begin_launch(const char* name, std::uint32_t grid_dim,
                                 std::uint32_t block_dim) {
  kernel_name_ = name;
  grid_dim_ = grid_dim;
  block_dim_ = block_dim;
  ++launch_seq_;  // stale shadow cells from earlier launches now self-reset
  ++launches_checked_;
  in_launch_ = true;
  launch_first_violation_ = violations_.size();
  pos_ = Who{};
}

void KernelChecker::end_launch() {
  in_launch_ = false;
  if (violations_.size() == launch_first_violation_) return;
  std::ostringstream os;
  os << "KernelCheck: kernel discipline violation";
  for (std::size_t i = launch_first_violation_; i < violations_.size(); ++i) {
    os << "\n  " << violations_[i];
  }
  throw Error(os.str());
}

void KernelChecker::at_thread(std::uint32_t block, std::uint32_t thread) {
  pos_.block = block;
  pos_.thread = thread;
  pos_.phase = 0;
}

void KernelChecker::begin_block(std::uint32_t block) {
  pos_.block = block;
  pos_.thread = kBlockDriver;
  pos_.phase = 0;
  // Shared allocations are per-block scratch; the allocator may hand the
  // next block the same addresses, so the block boundary resets them.
  shared_shadow_.clear();
  if (cached_shared_) {
    cached_key_ = nullptr;
    cached_shadow_ = nullptr;
  }
}

void KernelChecker::enter_phase() {
  ++pos_.phase;
  pos_.thread = kBlockDriver;
}

void KernelChecker::at_block_thread(std::uint32_t thread) {
  pos_.thread = thread;
}

KernelChecker::Snapshot KernelChecker::snapshot_buffers() const {
  Snapshot snap;
  snap.reserve(registry_.size());
  for (const auto& [ptr, info] : registry_) {
    const auto* bytes = static_cast<const std::byte*>(info.data);
    snap.emplace_back(ptr, std::vector<std::byte>(bytes, bytes + info.bytes));
  }
  std::sort(snap.begin(), snap.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void KernelChecker::restore_buffers(const Snapshot& snap) const {
  for (const auto& [ptr, bytes] : snap) {
    auto it = registry_.find(ptr);
    SIMCOV_ASSERT(it != registry_.end(),
                  "KernelCheck: buffer vanished during schedule replay");
    std::memcpy(it->second.data, bytes.data(), bytes.size());
  }
}

void KernelChecker::diff_against_canonical(const Snapshot& canonical,
                                           const Snapshot& permuted,
                                           const char* schedule_label) {
  SIMCOV_ASSERT(canonical.size() == permuted.size(),
                "KernelCheck: buffer set changed during schedule replay");
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    const auto& [ptr, want] = canonical[i];
    const auto& [pptr, got] = permuted[i];
    SIMCOV_ASSERT(ptr == pptr && want.size() == got.size(),
                  "KernelCheck: buffer set changed during schedule replay");
    if (want == got) continue;
    auto it = registry_.find(ptr);
    std::size_t elem_size = it != registry_.end() ? it->second.elem_size : 1;
    std::size_t byte = 0;
    while (byte < want.size() && want[byte] == got[byte]) ++byte;
    std::ostringstream os;
    os << buffer_label(ptr, /*shared=*/false) << " element "
       << byte / (elem_size == 0 ? 1 : elem_size) << " differs under the "
       << schedule_label << " schedule";
    record_violation("schedule-dependent result", os.str());
  }
}

bool KernelChecker::ordered(const Who& a, const Who& b) {
  // Sequential execution gives a total order inside one launch, but on a
  // real GPU only two edges are guaranteed: program order within a thread
  // and __syncthreads between phases of one block.  Cross-block accesses
  // are never ordered within a launch.
  return a.block == b.block && (a.thread == b.thread || a.phase != b.phase);
}

std::vector<KernelChecker::Cell>& KernelChecker::shadow_for(const void* buf,
                                                            bool shared) {
  if (buf == cached_key_ && shared == cached_shared_) return *cached_shadow_;
  auto& map = shared ? shared_shadow_ : global_shadow_;
  auto& shadow = map[buf];
  cached_key_ = buf;
  cached_shadow_ = &shadow;
  cached_shared_ = shared;
  return shadow;
}

void KernelChecker::on_global_access(const void* buf, std::size_t elem,
                                     Access kind) {
  if (!in_launch_) return record_stale_span(buf, elem);
  if (replay_ || !opts_.check_access) return;
  ++accesses_checked_;
  check_cell(shadow_for(buf, /*shared=*/false), elem, kind, buf,
             /*shared=*/false);
}

void KernelChecker::on_global_range(const void* buf, std::size_t first,
                                    std::size_t n, Access kind) {
  if (!in_launch_) return record_stale_span(buf, first);
  if (replay_ || !opts_.check_access || n == 0) return;
  accesses_checked_ += n;
  std::vector<Cell>& shadow = shadow_for(buf, /*shared=*/false);
  for (std::size_t e = first; e < first + n; ++e) {
    check_cell(shadow, e, kind, buf, /*shared=*/false);
  }
}

void KernelChecker::on_shared_access(const void* alloc, std::size_t elem,
                                     Access kind) {
  if (replay_ || !opts_.check_access) return;
  ++accesses_checked_;
  check_cell(shadow_for(alloc, /*shared=*/true), elem, kind, alloc,
             /*shared=*/true);
}

void KernelChecker::check_cell(std::vector<Cell>& shadow, std::size_t elem,
                               Access kind, const void* buf, bool shared) {
  if (shadow.size() <= elem) shadow.resize(elem + 1);
  Cell& cell = shadow[elem];
  if (cell.epoch != launch_seq_) {
    cell = Cell{};
    cell.epoch = launch_seq_;
  }

  const Who& me = pos_;
  auto conflict = [&](const char* rule, const Who& other) {
    std::ostringstream os;
    os << buffer_label(buf, shared) << " element " << elem << ": "
       << who_str(other.block, other.thread, other.phase) << " vs "
       << who_str(me.block, me.thread, me.phase);
    record_violation(rule, os.str());
  };
  const char* ww = shared ? "shared-memory phase violation (write-write)"
                          : "write-write race";
  const char* rw = shared ? "shared-memory phase violation (read-write)"
                          : "read-write race";
  const char* mix = shared ? "shared-memory atomic-plain mix"
                           : "atomic-plain mix";

  switch (kind) {
    case Access::kRead:
      if (cell.has_writer && !ordered(cell.writer, me)) {
        conflict(rw, cell.writer);
      }
      if (cell.has_atomic && !ordered(cell.atomic, me)) {
        conflict(mix, cell.atomic);
      }
      if (cell.num_readers > 0 && cell.readers[cell.num_readers - 1].block ==
                                      me.block &&
          cell.readers[cell.num_readers - 1].thread == me.thread) {
        cell.readers[cell.num_readers - 1] = me;  // refresh my phase
      } else if (cell.num_readers < 2) {
        cell.readers[cell.num_readers++] = me;
      } else if (cell.readers[0].block == me.block &&
                 cell.readers[0].thread == me.thread) {
        cell.readers[0] = me;
      } else {
        cell.readers[0] = cell.readers[1];
        cell.readers[1] = me;
      }
      break;
    case Access::kWrite:
      if (cell.has_writer && !ordered(cell.writer, me)) {
        conflict(ww, cell.writer);
      }
      for (std::uint8_t i = 0; i < cell.num_readers; ++i) {
        if (!ordered(cell.readers[i], me)) conflict(rw, cell.readers[i]);
      }
      if (cell.has_atomic && !ordered(cell.atomic, me)) {
        conflict(mix, cell.atomic);
      }
      cell.writer = me;
      cell.has_writer = 1;
      break;
    case Access::kAtomic:
      // Atomic vs atomic is always fine; atomics only clash with plain
      // reads and writes.
      if (cell.has_writer && !ordered(cell.writer, me)) {
        conflict(mix, cell.writer);
      }
      for (std::uint8_t i = 0; i < cell.num_readers; ++i) {
        if (!ordered(cell.readers[i], me)) conflict(mix, cell.readers[i]);
      }
      cell.atomic = me;
      cell.has_atomic = 1;
      break;
  }
}

void KernelChecker::record_stale_span(const void* buf, std::size_t elem) {
  std::ostringstream os;
  os << buffer_label(buf, /*shared=*/false) << " element " << elem
     << " accessed after the launch that bound it ended";
  record_violation("stale span", os.str());
}

void KernelChecker::record_violation(const std::string& rule,
                                     const std::string& detail) {
  ++total_violations_;
  std::string msg = rule + " in kernel " + launch_label() + ": " + detail;
  for (const auto& v : violations_) {
    if (v == msg) return;  // dedup repeated findings (e.g. per step)
  }
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(std::move(msg));
  }
}

std::string KernelChecker::buffer_label(const void* buf, bool shared) const {
  if (shared) return "shared memory";
  auto it = registry_.find(buf);
  if (it == registry_.end() || it->second.name == nullptr) {
    return "buffer <unnamed>";
  }
  return std::string("buffer '") + it->second.name + "'";
}

std::string KernelChecker::launch_label() const {
  std::ostringstream os;
  os << '\'' << (kernel_name_ != nullptr ? kernel_name_ : "<unnamed>")
     << "' <<" << grid_dim_ << 'x' << block_dim_ << ">>";
  return os.str();
}

std::string KernelChecker::report() const {
  if (clean()) return "";
  std::ostringstream os;
  os << "KernelCheck: " << total_violations_ << " violation(s)";
  if (total_violations_ > violations_.size()) {
    os << " (" << violations_.size() << " distinct shown)";
  }
  for (const auto& v : violations_) os << "\n  " << v;
  return os.str();
}

}  // namespace simcov::gpusim
