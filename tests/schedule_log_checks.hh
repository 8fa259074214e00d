/**
 * @file
 * The schedule-log comparison shared by the CompiledDdg suite and the
 * log-off test in the timeline suite.
 */
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/timing.hh"

namespace muir
{

/** Two logs of one schedule must agree column for column. */
inline void
expectSameLog(const sim::ScheduleLog &a, const sim::ScheduleLog &b,
              const std::string &name)
{
    EXPECT_EQ(a.ready, b.ready) << name;
    EXPECT_EQ(a.start, b.start) << name;
    EXPECT_EQ(a.finish, b.finish) << name;
    EXPECT_EQ(a.rank, b.rank) << name;
    EXPECT_EQ(a.memRow, b.memRow) << name;
    ASSERT_EQ(a.mem.size(), b.mem.size()) << name;
    for (size_t i = 0; i < a.mem.size(); ++i) {
        ASSERT_EQ(a.mem[i].iiStart, b.mem[i].iiStart)
            << name << " mem row " << i;
        ASSERT_EQ(a.mem[i].junctionStart, b.mem[i].junctionStart)
            << name << " mem row " << i;
        ASSERT_EQ(a.mem[i].dramStart, b.mem[i].dramStart)
            << name << " mem row " << i;
    }
}

} // namespace muir
