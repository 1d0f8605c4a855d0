#include <gtest/gtest.h>

#include <cstdlib>

#include "support/env.h"
#include "support/error.h"

namespace wsc {
namespace {

TEST(Support, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(Support, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Support, FatalCarriesMessage)
{
    try {
        fatal("bad configuration: chunk too large");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("chunk too large"),
                  std::string::npos);
    }
}

TEST(Support, StrcatFormatsMixedTypes)
{
    EXPECT_EQ(strcat("pe (", 3, ", ", 4, ")"), "pe (3, 4)");
}

TEST(Support, AssertMacroPassesOnTrue)
{
    EXPECT_NO_THROW(WSC_ASSERT(1 + 1 == 2, "arithmetic"));
}

TEST(Support, AssertMacroThrowsWithLocation)
{
    try {
        WSC_ASSERT(false, "custom detail " << 42);
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("custom detail 42"), std::string::npos);
        EXPECT_NE(msg.find("test_support.cpp"), std::string::npos);
    }
}

/** envU64 of `value` under a scratch variable name (fallback 5). */
uint64_t
envU64Of(const char *value)
{
    const char *name = "WSC_TEST_ENV_U64";
    ::setenv(name, value, 1);
    uint64_t parsed = envU64(name, 5);
    ::unsetenv(name);
    return parsed;
}

TEST(Support, EnvU64ParsesPlainDecimal)
{
    EXPECT_EQ(envU64Of("42"), 42u);
    EXPECT_EQ(envU64Of("0"), 0u);
    EXPECT_EQ(envU64Of("18446744073709551615"), UINT64_MAX);
    ::unsetenv("WSC_TEST_ENV_U64");
    EXPECT_EQ(envU64("WSC_TEST_ENV_U64", 5), 5u);
}

TEST(Support, EnvU64RejectsSignsPaddingGarbageAndOverflow)
{
    // strtoull alone wraps "-1" to UINT64_MAX and skips leading spaces.
    EXPECT_EQ(envU64Of("-1"), 5u);
    EXPECT_EQ(envU64Of("+7"), 5u);
    EXPECT_EQ(envU64Of(" 7"), 5u);
    EXPECT_EQ(envU64Of("12abc"), 5u);
    EXPECT_EQ(envU64Of(""), 5u);
    EXPECT_EQ(envU64Of("99999999999999999999999"), 5u);
    EXPECT_EQ(envU64Of("18446744073709551616"), 5u);
}

} // namespace
} // namespace wsc
