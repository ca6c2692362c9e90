#pragma once

// 802.16 (WiMAX) mesh-mode frame structures.
//
// Mesh mode divides time into fixed frames; each frame starts with a control
// subframe (network config / schedule dissemination messages) followed by a
// data subframe of equal-length minislots. A schedule grants each directed
// link a contiguous range of minislots per frame; grants repeat every frame
// until changed. These types are pure structure + arithmetic — scheduling
// policy lives in wimesh/sched and the WiFi emulation in wimesh/tdma.

#include <cstdint>
#include <optional>
#include <vector>

#include "wimesh/common/assert.h"
#include "wimesh/common/time.h"
#include "wimesh/graph/graph.h"

namespace wimesh {

// A directed radio link.
struct Link {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;

  friend bool operator==(const Link&, const Link&) = default;
};

using LinkId = std::int32_t;
inline constexpr LinkId kInvalidLink = -1;

// Dense registry of the directed links a schedule covers. LinkIds index
// per-link vectors everywhere (demands, grants, conflict graph nodes).
class LinkSet {
 public:
  // Returns the id of the link, adding it if new.
  LinkId add(Link link);

  LinkId find(Link link) const;
  bool contains(Link link) const { return find(link) != kInvalidLink; }

  const Link& link(LinkId id) const {
    WIMESH_ASSERT(id >= 0 && id < count());
    return links_[static_cast<std::size_t>(id)];
  }
  LinkId count() const { return static_cast<LinkId>(links_.size()); }
  const std::vector<Link>& links() const { return links_; }

 private:
  std::vector<Link> links_;
};

// 802.16 mesh frame layout: `control_slots` minislots of control subframe
// followed by `data_slots` minislots of data subframe.
struct FrameConfig {
  SimTime frame_duration = SimTime::milliseconds(10);
  int control_slots = 4;
  int data_slots = 64;

  int total_slots() const { return control_slots + data_slots; }

  SimTime slot_duration() const {
    WIMESH_ASSERT(total_slots() > 0);
    return frame_duration / total_slots();
  }

  // Offset of data minislot i from the frame start.
  SimTime data_slot_offset(int i) const {
    WIMESH_ASSERT(i >= 0 && i < data_slots);
    return slot_duration() * (control_slots + i);
  }

  // Frame index containing absolute time t (frames start at t = 0).
  std::int64_t frame_index(SimTime t) const { return t / frame_duration; }

  SimTime frame_start(std::int64_t index) const {
    return frame_duration * index;
  }
};

// A contiguous block of data minislots [start, start + length).
struct SlotRange {
  int start = 0;
  int length = 0;

  int end() const { return start + length; }
  bool overlaps(const SlotRange& o) const {
    return length > 0 && o.length > 0 && start < o.end() && o.start < end();
  }

  friend bool operator==(const SlotRange&, const SlotRange&) = default;
};

// First-fit placement: the earliest start >= `from` of a block of `length`
// slots that overlaps none of `busy` and ends within `frame_slots`, or
// nullopt when there is none. `busy` may come in any order (it is sorted
// in place) and may overlap itself; zero-length ranges block nothing.
std::optional<int> first_fit(std::vector<SlotRange>& busy, int length,
                             int from, int frame_slots);

// Per-frame minislot grants for every link in a LinkSet. In 802.16 mesh
// terms this is the steady-state result of centralized scheduling carried
// in MSH-CSCH/MSH-DSCH messages.
class MeshSchedule {
 public:
  MeshSchedule() = default;
  MeshSchedule(const LinkSet& links, int frame_slots)
      : frame_slots_(frame_slots),
        grants_(static_cast<std::size_t>(links.count())),
        extra_(static_cast<std::size_t>(links.count())) {}

  int frame_slots() const { return frame_slots_; }
  LinkId link_count() const { return static_cast<LinkId>(grants_.size()); }

  // Grants `range` to the link; the range must lie inside the frame. A link
  // may hold at most one grant (block scheduling, as in the paper).
  void set_grant(LinkId link, SlotRange range);

  // The link's primary grant, or nullopt if it has none.
  std::optional<SlotRange> grant(LinkId link) const {
    WIMESH_ASSERT(link >= 0 && link < link_count());
    const auto& g = grants_[static_cast<std::size_t>(link)];
    if (g.length == 0) return std::nullopt;
    return g;
  }

  // Adds a supplementary grant (best-effort capacity in leftover slots).
  // Unlike the primary grant, a link may hold any number of these.
  void add_extra_grant(LinkId link, SlotRange range);

  const std::vector<SlotRange>& extra_grants(LinkId link) const {
    WIMESH_ASSERT(link >= 0 && link < link_count());
    return extra_[static_cast<std::size_t>(link)];
  }

  // Primary + extra grants of a link, in slot order.
  std::vector<SlotRange> all_grants(LinkId link) const;

  // Highest slot index in use + 1 (the schedule length to be minimized).
  int used_slots() const;

  // Total granted slots across links (primary + extra).
  int granted_slots() const;

 private:
  int frame_slots_ = 0;
  std::vector<SlotRange> grants_;
  std::vector<std::vector<SlotRange>> extra_;
};

}  // namespace wimesh
