#include "wimesh/wimax/mesh_frame.h"

#include <algorithm>

namespace wimesh {

LinkId LinkSet::add(Link link) {
  WIMESH_ASSERT(link.from >= 0 && link.to >= 0);
  WIMESH_ASSERT_MSG(link.from != link.to, "link endpoints must differ");
  const LinkId existing = find(link);
  if (existing != kInvalidLink) return existing;
  links_.push_back(link);
  return static_cast<LinkId>(links_.size() - 1);
}

LinkId LinkSet::find(Link link) const {
  const auto it = std::find(links_.begin(), links_.end(), link);
  if (it == links_.end()) return kInvalidLink;
  return static_cast<LinkId>(it - links_.begin());
}

void MeshSchedule::set_grant(LinkId link, SlotRange range) {
  WIMESH_ASSERT(link >= 0 && link < link_count());
  WIMESH_ASSERT(range.length > 0);
  WIMESH_ASSERT(range.start >= 0);
  WIMESH_ASSERT_MSG(range.end() <= frame_slots_,
                    "grant extends past the data subframe");
  auto& g = grants_[static_cast<std::size_t>(link)];
  WIMESH_ASSERT_MSG(g.length == 0, "link already has a grant");
  g = range;
}

void MeshSchedule::add_extra_grant(LinkId link, SlotRange range) {
  WIMESH_ASSERT(link >= 0 && link < link_count());
  WIMESH_ASSERT(range.length > 0);
  WIMESH_ASSERT(range.start >= 0);
  WIMESH_ASSERT_MSG(range.end() <= frame_slots_,
                    "grant extends past the data subframe");
  extra_[static_cast<std::size_t>(link)].push_back(range);
}

std::vector<SlotRange> MeshSchedule::all_grants(LinkId link) const {
  std::vector<SlotRange> out;
  if (const auto g = grant(link)) out.push_back(*g);
  const auto& extras = extra_grants(link);
  out.insert(out.end(), extras.begin(), extras.end());
  std::sort(out.begin(), out.end(),
            [](const SlotRange& a, const SlotRange& b) {
              return a.start < b.start;
            });
  return out;
}

int MeshSchedule::used_slots() const {
  int used = 0;
  for (const auto& g : grants_) used = std::max(used, g.end());
  for (const auto& list : extra_) {
    for (const auto& g : list) used = std::max(used, g.end());
  }
  return used;
}

int MeshSchedule::granted_slots() const {
  int total = 0;
  for (const auto& g : grants_) total += g.length;
  for (const auto& list : extra_) {
    for (const auto& g : list) total += g.length;
  }
  return total;
}

std::optional<int> first_fit(std::vector<SlotRange>& busy, int length,
                             int from, int frame_slots) {
  std::sort(busy.begin(), busy.end(),
            [](const SlotRange& a, const SlotRange& b) {
              return a.start < b.start;
            });
  // Every range starting before the candidate block ends either lies
  // wholly before it or pushes it past its own end.
  int cursor = from;
  for (const SlotRange& b : busy) {
    if (b.length == 0) continue;
    if (cursor + length <= b.start) break;
    cursor = std::max(cursor, b.end());
  }
  if (cursor + length > frame_slots) return std::nullopt;
  return cursor;
}

}  // namespace wimesh
