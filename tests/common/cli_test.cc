/**
 * @file
 * The flag-table parser and its one number parser: range edges at the
 * row's bound and the destination type's, reals and rates, environment
 * defaults under flags, the `=` form, and the `--sample` spec.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/sim_config.hh"

namespace tmcc
{
namespace
{

constexpr unsigned kU32Max = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kRealMax = std::numeric_limits<double>::max();

TEST(CliNumber, UnsignedEdges)
{
    EXPECT_FALSE(cli::tryParseNumber<unsigned>("0", 1, kU32Max));
    EXPECT_EQ(cli::tryParseNumber<unsigned>("0", 0, kU32Max), 0u);
    EXPECT_EQ(cli::tryParseNumber<unsigned>("1", 1, kU32Max), 1u);
    EXPECT_EQ(cli::tryParseNumber<unsigned>("4294967295", 1, kU32Max),
              kU32Max);
    EXPECT_FALSE(cli::tryParseNumber<unsigned>("4294967296", 1, kU32Max));
    EXPECT_FALSE(cli::tryParseNumber<unsigned>("4294967296", 0, kU32Max));
    // The row's own bound applies below the type's.
    EXPECT_EQ(cli::tryParseNumber<unsigned>("1024", 1, 1024), 1024u);
    EXPECT_FALSE(cli::tryParseNumber<unsigned>("1025", 1, 1024));
}

TEST(CliNumber, U64Edges)
{
    EXPECT_FALSE(cli::tryParseNumber<std::uint64_t>("0", 1, kU64Max));
    EXPECT_EQ(cli::tryParseNumber<std::uint64_t>("0", 0, kU64Max), 0u);
    EXPECT_EQ(cli::tryParseNumber<std::uint64_t>("1", 1, kU64Max), 1u);
    EXPECT_EQ(cli::tryParseNumber<std::uint64_t>("18446744073709551615", 0,
                                                 kU64Max),
              kU64Max);
    EXPECT_FALSE(cli::tryParseNumber<std::uint64_t>("18446744073709551616",
                                                    0, kU64Max));
}

TEST(CliNumber, IntegersAreBaseTenDigitsOnly)
{
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "1e3", "0x10", "2x",
                            "1.0", "many"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(cli::tryParseNumber<unsigned>(bad, 0, kU32Max));
        EXPECT_FALSE(cli::tryParseNumber<std::uint64_t>(bad, 0, kU64Max));
    }
}

TEST(CliNumber, RatesAndReals)
{
    EXPECT_EQ(cli::tryParseNumber("0", 0.0, 1.0), 0.0);
    EXPECT_EQ(cli::tryParseNumber("1", 0.0, 1.0), 1.0);
    EXPECT_EQ(cli::tryParseNumber("1e-3", 0.0, 1.0), 1e-3);
    EXPECT_FALSE(cli::tryParseNumber("1.0000001", 0.0, 1.0));
    EXPECT_FALSE(cli::tryParseNumber("-0.5", 0.0, 1.0));
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e400",
                            "", "abc", "0.5x"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(cli::tryParseNumber(bad, 0.0, kRealMax));
    }
    // "Positive" excludes zero; "non-negative" keeps it.
    EXPECT_FALSE(cli::tryParseNumber("0", cli::kPositive, kRealMax));
    EXPECT_EQ(cli::tryParseNumber("0.02", cli::kPositive, kRealMax), 0.02);
}

TEST(CliNumberDeathTest, MessagesNameTheFlagAndTheRange)
{
    EXPECT_EXIT(cli::parseNumber<unsigned>("--tlb", "4294967296", 1,
                                           kU32Max),
                ::testing::ExitedWithCode(1),
                "--tlb must be a positive integer, got \"4294967296\" "
                "\\(max 4294967295\\)");
    EXPECT_EXIT(cli::parseNumber<std::uint64_t>("--seed", "-1", 0, kU64Max),
                ::testing::ExitedWithCode(1),
                "--seed must be a non-negative integer");
    EXPECT_EXIT(cli::parseNumber<unsigned>("--cores", "0", 1, 1024),
                ::testing::ExitedWithCode(1),
                "--cores must be an integer in \\[1, 1024\\]");
    EXPECT_EXIT(cli::parseNumber("--rate", "inf", 0.0, 1.0),
                ::testing::ExitedWithCode(1),
                "--rate must be a rate in \\[0, 1\\]");
    EXPECT_EXIT(cli::parseNumber("--scale", "0", cli::kPositive, kRealMax),
                ::testing::ExitedWithCode(1),
                "--scale must be a positive number");
    EXPECT_EXIT(cli::parseNumber("--budget", "-1", 0.0, kRealMax),
                ::testing::ExitedWithCode(1),
                "--budget must be a non-negative number");
}

/** A small table over local state, parsed from a literal argv. */
struct Front
{
    unsigned cores = 4;
    double scale = 0.5;
    bool huge = false;
    std::string trace;
    std::vector<std::string> record;

    std::vector<cli::Flag>
    flags()
    {
        return {
            {"--cores", "N", "core count", cli::bind(cores, 1)},
            {"--scale", "F", "scale", cli::bind(scale, cli::kPositive)},
            {"--huge", "", "2MB pages", cli::bind(huge)},
            {"--trace", "FILE", "trace file", cli::bind(trace),
             "TMCC_CLI_TEST_TRACE"},
            {"--record", "FILE N", "record",
             [this](const std::string &, const cli::Values &v) {
                 record = v;
             }},
        };
    }

    void
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "prog");
        cli::parse("Usage: prog\n", flags(), static_cast<int>(args.size()),
                   args.data());
    }
};

TEST(CliParse, EqualsAndSpaceFormsAgree)
{
    Front spaced;
    spaced.parse({"--cores", "8", "--scale", "0.02", "--trace", "t.json",
                  "--record", "f.trace", "10", "--huge"});
    Front equals;
    equals.parse({"--cores=8", "--scale=0.02", "--trace=t.json",
                  "--record=f.trace", "10", "--huge"});
    for (const Front *f : {&spaced, &equals}) {
        EXPECT_EQ(f->cores, 8u);
        EXPECT_EQ(f->scale, 0.02);
        EXPECT_EQ(f->trace, "t.json");
        EXPECT_EQ(f->record, (cli::Values{"f.trace", "10"}));
        EXPECT_TRUE(f->huge);
    }
}

TEST(CliParse, FlagOverridesEnvDefault)
{
    ::setenv("TMCC_CLI_TEST_TRACE", "env.json", 1);
    Front from_env;
    from_env.parse({});
    EXPECT_EQ(from_env.trace, "env.json");
    Front from_flag;
    from_flag.parse({"--trace", "flag.json"});
    EXPECT_EQ(from_flag.trace, "flag.json");

    // Set but empty means "not given".
    ::setenv("TMCC_CLI_TEST_TRACE", "", 1);
    Front empty;
    empty.trace = "default.json";
    empty.parse({});
    EXPECT_EQ(empty.trace, "default.json");
    ::unsetenv("TMCC_CLI_TEST_TRACE");
}

TEST(CliParse, UsageListsVisibleRowsWithTheirEnv)
{
    const std::string text = cli::usage("Usage: prog\n", Front().flags());
    for (const char *row : {"--cores N", "--scale F", "--huge",
                            "--record FILE N", "(env: TMCC_CLI_TEST_TRACE)",
                            "-h, --help"})
        EXPECT_NE(text.find(row), std::string::npos) << row;
}

TEST(CliParseDeathTest, RejectsMisuse)
{
    const auto parse = [](std::vector<const char *> args) {
        Front().parse(std::move(args));
    };
    EXPECT_EXIT(parse({"--huge=1"}), ::testing::ExitedWithCode(1),
                "--huge takes no value");
    EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(1),
                "unknown option --bogus \\(try --help\\)");
    EXPECT_EXIT(parse({"--cores"}), ::testing::ExitedWithCode(1),
                "--cores needs a value");
    EXPECT_EXIT(parse({"--record", "f.trace"}), ::testing::ExitedWithCode(1),
                "--record needs a value");
    EXPECT_EXIT(parse({"--cores=4294967297"}), ::testing::ExitedWithCode(1),
                "--cores must be a positive integer");
    EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(CliParseDeathTest, EnvValueIsValidatedUnderItsOwnName)
{
    EXPECT_EXIT(
        {
            ::setenv("TMCC_CLI_TEST_JOBS", "4294967297", 1);
            cli::envNumber<unsigned>("TMCC_CLI_TEST_JOBS", 1);
        },
        ::testing::ExitedWithCode(1),
        "TMCC_CLI_TEST_JOBS must be a positive integer");
}

TEST(SampleSpec, WarmDefaultsToWindowOrTakesThirdPart)
{
    SimConfig cfg;
    parseSampleSpec("--sample", "4:100", cfg);
    EXPECT_EQ(cfg.sampleWindows, 4u);
    EXPECT_EQ(cfg.sampleWindowAccesses, 100u);
    EXPECT_EQ(cfg.sampleWarmAccesses, 100u);
    parseSampleSpec("--sample", "4:100:7", cfg);
    EXPECT_EQ(cfg.sampleWarmAccesses, 7u);
}

TEST(SampleSpecDeathTest, RejectsMalformedSpecs)
{
    SimConfig cfg;
    for (const char *bad :
         {"4", "4:0", "1:2:3:4", "a:1", "4:99999999999999999999"}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(parseSampleSpec("--sample", bad, cfg),
                    ::testing::ExitedWithCode(1),
                    "--sample must be k:w\\[:warm\\]");
    }
}

} // namespace
} // namespace tmcc
