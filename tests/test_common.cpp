/**
 * @file
 * Unit tests for the common substrate: units, alignment helpers,
 * deterministic RNG, error reporting, the report-table printer, and
 * the strict numeric parsers every tool reads its flags with.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace gpm {
namespace {

TEST(Units, LiteralsAndConversions)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
    EXPECT_DOUBLE_EQ(1_us, 1000.0);
    EXPECT_DOUBLE_EQ(3_ms, 3e6);
    EXPECT_DOUBLE_EQ(toMs(2.5e6), 2.5);
    EXPECT_DOUBLE_EQ(toUs(1500.0), 1.5);
    EXPECT_DOUBLE_EQ(toSec(2e9), 2.0);
}

TEST(Units, TransferTime)
{
    // 13 GB/s == 13 bytes/ns.
    EXPECT_DOUBLE_EQ(transferNs(13, 13.0), 1.0);
    EXPECT_DOUBLE_EQ(transferNs(0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(transferNs(100, 0.0), 0.0);  // "infinitely fast"
}

TEST(Units, Alignment)
{
    EXPECT_EQ(alignDown(257, 256), 256u);
    EXPECT_EQ(alignDown(256, 256), 256u);
    EXPECT_EQ(alignUp(1, 256), 256u);
    EXPECT_EQ(alignUp(256, 256), 256u);
    EXPECT_TRUE(isAligned(512, 256));
    EXPECT_FALSE(isAligned(260, 256));
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo && saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams)
{
    Rng base(42);
    Rng a = base.split(1), b = base.split(2), a2 = base.split(1);
    EXPECT_NE(a.next(), b.next());
    Rng a3 = base.split(1);
    EXPECT_EQ(a2.next(), a3.next());
}

TEST(Status, PanicAndFatalThrowTypedErrors)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
    try {
        fatal("value was ", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Status, Macros)
{
    EXPECT_NO_THROW(GPM_ASSERT(1 + 1 == 2));
    EXPECT_THROW(GPM_ASSERT(false, "ctx"), PanicError);
    EXPECT_NO_THROW(GPM_REQUIRE(true, "fine"));
    EXPECT_THROW(GPM_REQUIRE(false, "nope"), FatalError);
}

TEST(Table, AlignedAndTsvOutput)
{
    Table t({"A", "Bee"});
    t.addRow({"1", "2"});
    t.addRow({"longer", "x"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream tsv;
    t.printTsv(tsv);
    EXPECT_EQ(tsv.str(), "A\tBee\n1\t2\nlonger\tx\n");

    std::ostringstream pretty;
    t.print(pretty);
    EXPECT_NE(pretty.str().find("longer"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    Table t({"A", "B"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159), "3.14");
    EXPECT_EQ(Table::num(3.14159, 1), "3.1");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(ExecWorkers, AcceptsPlainDecimalInRange)
{
    EXPECT_EQ(parseExecWorkers("0"), 0);
    EXPECT_EQ(parseExecWorkers("1"), 1);
    EXPECT_EQ(parseExecWorkers("8"), 8);
    EXPECT_EQ(parseExecWorkers("1024"), 1024);
    EXPECT_EQ(parseExecWorkers("007"), 7);  // leading zeros are digits
}

TEST(ExecWorkers, RejectsMalformedInput)
{
    EXPECT_EQ(parseExecWorkers(nullptr), std::nullopt);
    EXPECT_EQ(parseExecWorkers(""), std::nullopt);
    EXPECT_EQ(parseExecWorkers(" 4"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("4 "), std::nullopt);
    EXPECT_EQ(parseExecWorkers("+4"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("-1"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("4x"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("x4"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("4.0"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("0x10"), std::nullopt);
}

TEST(ExecWorkers, RejectsOutOfRange)
{
    EXPECT_EQ(parseExecWorkers("1025"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("99999"), std::nullopt);
    EXPECT_EQ(parseExecWorkers("123456"), std::nullopt);  // > 5 digits
}

TEST(ExecWorkers, EnvFallsBackOnUnsetOrInvalid)
{
    ::unsetenv("GPM_EXEC_WORKERS");
    EXPECT_EQ(execWorkersFromEnv(3), 3);

    ::setenv("GPM_EXEC_WORKERS", "6", 1);
    EXPECT_EQ(execWorkersFromEnv(3), 6);

    ::setenv("GPM_EXEC_WORKERS", "bogus", 1);
    EXPECT_EQ(execWorkersFromEnv(3), 3);

    ::setenv("GPM_EXEC_WORKERS", "-2", 1);
    EXPECT_EQ(execWorkersFromEnv(), 1);

    ::unsetenv("GPM_EXEC_WORKERS");
}

/** Input a tool must refuse wherever it expects an integer. */
constexpr const char *kHostile[] = {
    "abc", "-1", "+4", "12x", "18446744073709551616", "", " 4", "4 ",
    "0x10",
};

/** 2^64 overflows the integer parsers; as a decimal it is in range. */
bool
overflowsOnlyIntegers(const char *s)
{
    return std::string(s) == "18446744073709551616";
}

TEST(StrictNumbers, U64AcceptsTheFullRange)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("42"), 42u);
    EXPECT_EQ(parseU64("007"), 7u);
    EXPECT_EQ(parseU64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(StrictNumbers, RejectsHostileInput)
{
    for (const char *s : kHostile) {
        EXPECT_EQ(parseU64(s), std::nullopt) << "'" << s << "'";
        EXPECT_EQ(parseExecWorkers(s), std::nullopt) << "'" << s << "'";
        if (!overflowsOnlyIntegers(s)) {
            EXPECT_EQ(parseDecimal(s), std::nullopt) << "'" << s << "'";
        }
    }
    // Overflow is refused at any width, never saturated or wrapped.
    EXPECT_EQ(parseU64("99999999999999999999"), std::nullopt);
    EXPECT_EQ(parseU64("4.0"), std::nullopt);
}

TEST(StrictNumbers, DecimalAcceptsPlainFractionsOnly)
{
    EXPECT_EQ(parseDecimal("0.5"), 0.5);
    EXPECT_EQ(parseDecimal("1"), 1.0);
    EXPECT_EQ(parseDecimal("0.125"), 0.125);
    EXPECT_EQ(parseDecimal("10.25"), 10.25);
    for (const char *s : {".5", "5.", "1e-3", "inf", "nan", "-0.5",
                          "+0.5", "0.5x", "1.2.3", "0,5"})
        EXPECT_EQ(parseDecimal(s), std::nullopt) << "'" << s << "'";
}

TEST(StrictNumbers, RequireFormsNameTheFlagAndTheInput)
{
    EXPECT_EQ(requireU64("--seed", "7"), 7u);
    EXPECT_EQ(requireExecWorkers("--jobs", "4"), 4);
    EXPECT_EQ(requireDecimal("--survive", "0.5"), 0.5);
    for (const char *s : kHostile) {
        EXPECT_THROW(requireU64("--seed", s), FatalError);
        EXPECT_THROW(requireExecWorkers("--jobs", s), FatalError);
        if (!overflowsOnlyIntegers(s)) {
            EXPECT_THROW(requireDecimal("--survive", s), FatalError);
        }
    }
    try {
        requireU64("--seeds", "12x");
        FAIL() << "12x parsed";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--seeds"), std::string::npos) << what;
        EXPECT_NE(what.find("'12x'"), std::string::npos) << what;
    }
}

} // namespace
} // namespace gpm
