/**
 * The environment-knob contract (common/env.hh), focused on the
 * clearing convention: an EMPTY or WHITESPACE-ONLY value means
 * *unset* — that is how shells (`SLIPSTREAM_DETECT= cmd`) and
 * supervisors clear a knob — never garbage, never a warning, and for
 * the strict mode knobs never a FatalError.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"
#include "common/logging.hh"

namespace slip
{
namespace
{

struct EnvGuard
{
    explicit EnvGuard(const char *n) : name(n) { unsetenv(name); }
    ~EnvGuard() { unsetenv(name); }
    void set(const char *value) { setenv(name, value, 1); }
    const char *name;
};

TEST(EnvKnobs, EmptyValueMeansUnsetForU64)
{
    EnvGuard env("SLIP_TEST_EMPTY_U64");
    EXPECT_EQ(envU64(env.name, 7), 7u); // truly unset
    env.set("");
    EXPECT_EQ(envU64(env.name, 7), 7u); // cleared, not garbage
    env.set("42");
    EXPECT_EQ(envU64(env.name, 7), 42u); // real value still wins
}

TEST(EnvKnobs, WhitespaceOnlyValueMeansUnsetForU64)
{
    EnvGuard env("SLIP_TEST_WS_U64");
    env.set("   ");
    EXPECT_EQ(envU64(env.name, 9), 9u);
    env.set("\t \n");
    EXPECT_EQ(envU64(env.name, 9), 9u);
}

TEST(EnvKnobs, EmptyAndWhitespaceMeanUnsetForFlag)
{
    EnvGuard env("SLIP_TEST_EMPTY_FLAG");
    env.set("");
    EXPECT_TRUE(envFlag(env.name, true));
    EXPECT_FALSE(envFlag(env.name, false));
    env.set("  ");
    EXPECT_TRUE(envFlag(env.name, true));
    env.set("no");
    EXPECT_FALSE(envFlag(env.name, true));
}

TEST(EnvKnobs, EmptyAndWhitespaceMeanUnsetForChoice)
{
    EnvGuard env("SLIP_TEST_EMPTY_CHOICE");
    const auto pick = [&] {
        return envChoice(env.name, {"none", "fork"}, 0);
    };
    env.set("");
    EXPECT_EQ(pick(), 0u); // cleared: fallback, no FatalError
    env.set(" \t ");
    EXPECT_EQ(pick(), 0u);
    env.set("fork");
    EXPECT_EQ(pick(), 1u);
    // A NON-empty unrecognized value keeps the strict contract.
    env.set("frok");
    EXPECT_THROW(pick(), FatalError);
}

TEST(ToolOptions, SplitCsvKeepsNonEmptyItemsInOrder)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(splitCsv("compress,li"), (V{"compress", "li"}));
    EXPECT_EQ(splitCsv(",go,,jpeg,"), (V{"go", "jpeg"}));
    EXPECT_EQ(splitCsv("perl"), (V{"perl"}));
    EXPECT_TRUE(splitCsv("").empty());
    EXPECT_TRUE(splitCsv(",,").empty());
}

} // namespace
} // namespace slip
