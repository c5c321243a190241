/**
 * @file
 * Unit tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "common/flags.hh"

using minos::Flags;

namespace {

Flags
make(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv(args);
    return Flags(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Flags, EqualsSyntax)
{
    auto f = make({"prog", "--nodes=5", "--model=synch"});
    EXPECT_EQ(f.getInt("nodes", 0), 5);
    EXPECT_EQ(f.getString("model"), "synch");
    EXPECT_TRUE(f.has("nodes"));
    EXPECT_FALSE(f.has("records"));
}

TEST(Flags, SpaceSyntax)
{
    auto f = make({"prog", "--nodes", "7", "--model", "event"});
    EXPECT_EQ(f.getInt("nodes", 0), 7);
    EXPECT_EQ(f.getString("model"), "event");
}

TEST(Flags, BareBooleanSwitch)
{
    auto f = make({"prog", "--csv", "--verbose"});
    EXPECT_TRUE(f.getBool("csv"));
    EXPECT_TRUE(f.getBool("verbose"));
    EXPECT_FALSE(f.getBool("quiet"));
    EXPECT_TRUE(f.getBool("quiet", true)); // default honored
}

TEST(Flags, BooleanValues)
{
    auto f = make({"prog", "--a=true", "--b=false", "--c=1", "--d=0",
                   "--e=yes", "--g=no"});
    EXPECT_TRUE(f.getBool("a"));
    EXPECT_FALSE(f.getBool("b"));
    EXPECT_TRUE(f.getBool("c"));
    EXPECT_FALSE(f.getBool("d"));
    EXPECT_TRUE(f.getBool("e"));
    EXPECT_FALSE(f.getBool("g"));
}

TEST(Flags, BareSwitchBeforeAnotherFlag)
{
    // `--csv --nodes=3`: csv must not swallow the next flag.
    auto f = make({"prog", "--csv", "--nodes=3"});
    EXPECT_TRUE(f.getBool("csv"));
    EXPECT_EQ(f.getInt("nodes", 0), 3);
}

TEST(Flags, Positional)
{
    auto f = make({"prog", "input.txt", "--nodes=2", "output.txt"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "input.txt");
    EXPECT_EQ(f.positional()[1], "output.txt");
    EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, DoubleDashEndsFlags)
{
    auto f = make({"prog", "--a=1", "--", "--not-a-flag"});
    EXPECT_TRUE(f.has("a"));
    ASSERT_EQ(f.positional().size(), 1u);
    EXPECT_EQ(f.positional()[0], "--not-a-flag");
}

TEST(Flags, GetDouble)
{
    auto f = make({"prog", "--frac=0.8"});
    EXPECT_DOUBLE_EQ(f.getDouble("frac", 0.0), 0.8);
    EXPECT_DOUBLE_EQ(f.getDouble("missing", 0.25), 0.25);
}

TEST(Flags, GetStringsSplitsOnCommas)
{
    auto f = make({"prog", "--trace-categories=lock,fifo,message"});
    auto cats = f.getStrings("trace-categories");
    ASSERT_EQ(cats.size(), 3u);
    EXPECT_EQ(cats[0], "lock");
    EXPECT_EQ(cats[1], "fifo");
    EXPECT_EQ(cats[2], "message");

    // Empty pieces are dropped; absent flags give an empty list.
    auto sloppy = make({"prog", "--trace-categories=lock,,fifo,"});
    auto kept = sloppy.getStrings("trace-categories");
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0], "lock");
    EXPECT_EQ(kept[1], "fifo");
    EXPECT_TRUE(make({"prog"}).getStrings("trace-categories").empty());

    // Alternative separators.
    auto colon = make({"prog", "--path=a:b"});
    auto parts = colon.getStrings("path", ':');
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[1], "b");
}

TEST(Flags, UnknownFlagDetection)
{
    auto f = make({"prog", "--nodes=3", "--typo=1"});
    auto unknown = f.unknownFlags({"nodes", "model"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "typo");
}

TEST(Flags, EmptyCommandLine)
{
    auto f = make({"prog"});
    EXPECT_TRUE(f.positional().empty());
    EXPECT_EQ(f.getInt("anything", 9), 9);
}

TEST(Flags, RangeCheckedValuesInRange)
{
    auto f = make({"prog", "--nodes=64", "--frac=0.25", "--lo=-3"});
    EXPECT_EQ(f.getInt("nodes", 5, 2, 64), 64);
    EXPECT_EQ(f.getInt("lo", 0, -3, 3), -3);
    EXPECT_EQ(f.getInt("records", 9, 1, 10), 9); // absent: the default
    EXPECT_DOUBLE_EQ(f.getDouble("frac", 0.5, 0, 1), 0.25);
    EXPECT_DOUBLE_EQ(f.getDouble("missing", 0.5, 0, 1), 0.5);
    EXPECT_EQ(f.parseInt("writers", "2", 0, 2), 2);
}

TEST(FlagsDeathTest, BadIntegerValueExitsTwo)
{
    const auto bad = ::testing::ExitedWithCode(2);
    for (const char *arg : {"--nodes=1", "--nodes=65", "--nodes=x",
                            "--nodes=3x", "--nodes=",
                            "--nodes=99999999999999999999"}) {
        auto f = make({"/opt/tools/prog", arg});
        EXPECT_EXIT(f.getInt("nodes", 5, 2, 64), bad,
                    "^prog: --nodes expects an integer in \\[2, 64\\]")
            << arg;
    }
    auto f = make({"prog"});
    EXPECT_EXIT(f.parseInt("writers", "0,x", 0, 2), bad,
                "--writers expects an integer in \\[0, 2\\], got '0,x'");
}

TEST(FlagsDeathTest, BadNumberValueExitsTwo)
{
    const auto bad = ::testing::ExitedWithCode(2);
    for (const char *arg : {"--frac=2", "--frac=-1", "--frac=nan",
                            "--frac=abc", "--frac=0.5x", "--frac="}) {
        auto f = make({"prog", arg});
        EXPECT_EXIT(f.getDouble("frac", 0.5, 0, 1), bad,
                    "^prog: --frac expects a number in \\[0, 1\\]")
            << arg;
    }
}

TEST(FlagsDeathTest, BadBooleanValueExitsTwo)
{
    const auto bad = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(make({"prog", "--audit-fatal=on"}).getBool("audit-fatal"),
                bad,
                "^prog: --audit-fatal expects no value, 1/true/yes or "
                "0/false/no, got 'on'");
    // `--csv out` gives --csv the value "out": refused, not read as off.
    EXPECT_EXIT(make({"prog", "--csv", "out"}).getBool("csv"), bad,
                "^prog: --csv expects .*, got 'out'");
}

TEST(FlagsDeathTest, EmptyValueExitsTwo)
{
    // A path or list flag given with nothing to name is refused, not
    // read as absent: bare before another flag, or as `--name=`.
    const auto bad = ::testing::ExitedWithCode(2);
    for (auto args : {make({"prog", "--metrics-out", "--audit"}),
                      make({"prog", "--metrics-out="}),
                      make({"prog", "--metrics-out"})})
        EXPECT_EXIT(args.getNonEmpty("metrics-out"), bad,
                    "^prog: --metrics-out expects a value");
    for (const char *arg : {"--trace-categories", "--trace-categories=",
                            "--trace-categories=,"})
        EXPECT_EXIT(make({"prog", arg}).getStrings("trace-categories"),
                    bad, "^prog: --trace-categories expects a value")
            << arg;

    // Absent, the flag reads as empty; given, as its value.
    EXPECT_EQ(make({"prog"}).getNonEmpty("bug"), "");
    EXPECT_EQ(make({"prog", "--bug=skip-spin"}).getNonEmpty("bug"),
              "skip-spin");
}

TEST(FlagsDeathTest, BadFlagNamesTheProgram)
{
    auto f = make({"./build/tools/minos-sim"});
    EXPECT_EXIT(f.badFlag("unknown --model 'foo'"),
                ::testing::ExitedWithCode(2),
                "^minos-sim: unknown --model 'foo'");
}
