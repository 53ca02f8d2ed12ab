/**
 * @file
 * Unit tests for the shared unit helpers.
 */

#include <gtest/gtest.h>

#include "common/units.hh"

namespace dora
{
namespace
{

TEST(Units, ClampTo)
{
    EXPECT_DOUBLE_EQ(clampTo(5.0, 0.0, 10.0), 5.0);
    EXPECT_DOUBLE_EQ(clampTo(-1.0, 0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(clampTo(11.0, 0.0, 10.0), 10.0);
    EXPECT_DOUBLE_EQ(clampTo(0.0, 0.0, 0.0), 0.0);
}

TEST(Units, CacheLineConstant)
{
    EXPECT_EQ(kCacheLineBytes, 64u);
}

} // namespace
} // namespace dora
