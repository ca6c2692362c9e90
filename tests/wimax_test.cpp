#include <gtest/gtest.h>

#include "wimesh/wimax/mesh_frame.h"

namespace wimesh {
namespace {

TEST(LinkSetTest, AddDeduplicates) {
  LinkSet ls;
  const LinkId a = ls.add({0, 1});
  const LinkId b = ls.add({1, 0});  // reverse direction is a distinct link
  const LinkId c = ls.add({0, 1});  // duplicate
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(ls.count(), 2);
}

TEST(LinkSetTest, FindMissingReturnsInvalid) {
  LinkSet ls;
  ls.add({0, 1});
  EXPECT_EQ(ls.find({2, 3}), kInvalidLink);
  EXPECT_FALSE(ls.contains({2, 3}));
  EXPECT_TRUE(ls.contains({0, 1}));
}

TEST(FrameConfigTest, SlotArithmetic) {
  FrameConfig f;
  f.frame_duration = SimTime::milliseconds(10);
  f.control_slots = 4;
  f.data_slots = 96;
  EXPECT_EQ(f.total_slots(), 100);
  EXPECT_EQ(f.slot_duration(), SimTime::microseconds(100));
  EXPECT_EQ(f.data_slot_offset(0), SimTime::microseconds(400));
  EXPECT_EQ(f.data_slot_offset(95), SimTime::microseconds(9900));
}

TEST(FrameConfigTest, FrameIndexing) {
  FrameConfig f;
  f.frame_duration = SimTime::milliseconds(10);
  EXPECT_EQ(f.frame_index(SimTime::zero()), 0);
  EXPECT_EQ(f.frame_index(SimTime::milliseconds(9)), 0);
  EXPECT_EQ(f.frame_index(SimTime::milliseconds(10)), 1);
  EXPECT_EQ(f.frame_index(SimTime::milliseconds(25)), 2);
  EXPECT_EQ(f.frame_start(3), SimTime::milliseconds(30));
}

TEST(SlotRangeTest, OverlapCases) {
  const SlotRange a{0, 4};   // [0,4)
  const SlotRange b{4, 4};   // [4,8) — adjacent, no overlap
  const SlotRange c{3, 2};   // [3,5)
  const SlotRange empty{2, 0};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
  EXPECT_FALSE(a.overlaps(empty));
  EXPECT_EQ(a.end(), 4);
}

TEST(FirstFitTest, OverlappingBusyRangesMergeIntoOneObstacle) {
  // [2,6) and [4,9) overlap, given out of order; [12,14) stands alone.
  std::vector<SlotRange> busy{{12, 2}, {4, 5}, {2, 4}};
  EXPECT_EQ(first_fit(busy, 2, 0, 20), 0);   // before the first range
  EXPECT_EQ(first_fit(busy, 3, 0, 20), 9);   // [0,2) is too short
  EXPECT_EQ(first_fit(busy, 3, 5, 20), 9);   // from inside the merged block
  EXPECT_EQ(first_fit(busy, 4, 0, 20), 14);  // [9,12) is too short
  EXPECT_EQ(first_fit(busy, 1, 10, 20), 10);
  EXPECT_EQ(busy.front().start, 2);  // sorted in place
}

TEST(FirstFitTest, ZeroLengthBusyRangesBlockNothing) {
  std::vector<SlotRange> busy{{3, 0}, {5, 0}, {8, 2}};
  EXPECT_EQ(first_fit(busy, 8, 0, 20), 0);
  EXPECT_EQ(first_fit(busy, 9, 0, 20), 10);
  std::vector<SlotRange> none{{0, 0}};
  EXPECT_EQ(first_fit(none, 20, 0, 20), 0);
}

TEST(FirstFitTest, BlockMustEndWithinTheFrame) {
  std::vector<SlotRange> busy{{0, 4}, {10, 6}};
  EXPECT_EQ(first_fit(busy, 4, 0, 20), 4);
  EXPECT_EQ(first_fit(busy, 4, 7, 20), 16);  // ends exactly at the frame end
  EXPECT_EQ(first_fit(busy, 5, 7, 20), std::nullopt);
  EXPECT_EQ(first_fit(busy, 2, 19, 20), std::nullopt);
  std::vector<SlotRange> empty;
  EXPECT_EQ(first_fit(empty, 20, 0, 20), 0);
  EXPECT_EQ(first_fit(empty, 21, 0, 20), std::nullopt);
}

TEST(MeshScheduleTest, GrantBookkeeping) {
  LinkSet ls;
  const LinkId l0 = ls.add({0, 1});
  const LinkId l1 = ls.add({1, 2});
  MeshSchedule s(ls, 32);
  EXPECT_FALSE(s.grant(l0).has_value());
  s.set_grant(l0, SlotRange{0, 8});
  s.set_grant(l1, SlotRange{8, 4});
  ASSERT_TRUE(s.grant(l0).has_value());
  EXPECT_EQ(s.grant(l0)->length, 8);
  EXPECT_EQ(s.used_slots(), 12);
  EXPECT_EQ(s.granted_slots(), 12);
  EXPECT_EQ(s.frame_slots(), 32);
}

TEST(MeshScheduleTest, UsedSlotsTracksHighestEnd) {
  LinkSet ls;
  const LinkId l0 = ls.add({0, 1});
  const LinkId l1 = ls.add({2, 3});
  MeshSchedule s(ls, 64);
  s.set_grant(l1, SlotRange{50, 10});
  s.set_grant(l0, SlotRange{0, 5});
  EXPECT_EQ(s.used_slots(), 60);
  EXPECT_EQ(s.granted_slots(), 15);
}

}  // namespace
}  // namespace wimesh
