#pragma once
// Role-to-host assignment for elastic rank membership (DESIGN.md §15).
//
// A Steiner (m, r, 3) system fixes the number of partition *roles* at P =
// #blocks; an arbitrary survivor count P' = P - f generally admits no
// Steiner system at all. So instead of re-deriving a partition for P',
// the elastic layer keeps the P base roles of the TetraPartition — their
// R_p subsets, owned blocks and Hall matching are untouched — and remaps
// each role onto a live *host* rank. A host owning several roles runs
// their kernels back to back and exchanges their shares over one
// aggregated envelope per host pair; role pairs that land on the same
// host become local copies and leave the wire entirely.
//
// shrink() is the redistribution planner's input: orphaned roles (hosted
// on a dead rank) are re-homed, ascending, onto the live rank currently
// hosting the fewest roles (ties to the lowest rank id) — the greedy
// balance matching the Hall-quota spirit of Section 6.1.3. Everything
// else stays put, so the block/slice movement diff is minimal: only dead
// ranks' roles move.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sttsv::elastic {

class BlockAssignment {
 public:
  /// Every role hosted by its own rank — the P-rank fault-free layout,
  /// core::parallel_sttsv's default placement.
  static BlockAssignment identity(std::size_t num_roles);

  /// A new assignment with `dead` ranks (sorted or not, duplicates fine)
  /// removed from the live set and their roles re-homed as described
  /// above. Epoch advances by one per shrink. Throws if nothing would
  /// remain alive or a dead rank is out of range.
  [[nodiscard]] BlockAssignment shrink(
      const std::vector<std::size_t>& dead) const;

  [[nodiscard]] std::size_t num_roles() const { return hosts_.size(); }
  [[nodiscard]] std::size_t host(std::size_t role) const;

  /// role -> host for every role: the placement argument of
  /// core::parallel_sttsv.
  [[nodiscard]] const std::vector<std::size_t>& hosts() const {
    return hosts_;
  }

  /// Roles hosted by `rank`, ascending (empty for dead ranks).
  [[nodiscard]] std::vector<std::size_t> roles_of(std::size_t rank) const;

  /// Live ranks, ascending.
  [[nodiscard]] const std::vector<std::size_t>& live_ranks() const {
    return live_;
  }

  /// Monotone shrink counter.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Every host is live, every live rank hosts at least one role, and
  /// per-host role counts differ by at most one (the greedy re-homing
  /// preserves this from the uniform start). Throws on violation.
  void validate() const;

 private:
  BlockAssignment() = default;

  std::vector<std::size_t> hosts_;  // role -> live rank
  std::vector<std::size_t> live_;  // ascending
  std::uint64_t epoch_ = 0;
};

}  // namespace sttsv::elastic
