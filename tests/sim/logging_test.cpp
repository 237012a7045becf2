#include "sim/logging.hpp"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace bgpsim::sim {
namespace {

struct Captured {
  LogLevel level;
  std::string component;
  SimTime when;
  std::string message;
};

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Log::set_level(LogLevel::kTrace);
    Log::set_sink([this](LogLevel l, std::string_view c, SimTime t,
                         std::string_view m) {
      captured_.push_back(Captured{l, std::string{c}, t, std::string{m}});
    });
  }
  void TearDown() override {
    Log::set_level(LogLevel::kOff);
    Log::set_sink(nullptr);
  }
  std::vector<Captured> captured_;
};

TEST_F(LoggingTest, LineReachesSink) {
  LogLine{LogLevel::kInfo, "bgp", SimTime::seconds(1.5)} << "hello " << 42;
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].component, "bgp");
  EXPECT_EQ(captured_[0].message, "hello 42");
  EXPECT_EQ(captured_[0].when, SimTime::seconds(1.5));
}

TEST_F(LoggingTest, LevelFiltering) {
  Log::set_level(LogLevel::kInfo);
  LogLine{LogLevel::kDebug, "x", SimTime::zero()} << "filtered";
  LogLine{LogLevel::kInfo, "x", SimTime::zero()} << "kept";
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].message, "kept");
}

TEST_F(LoggingTest, OffSuppressesEverything) {
  Log::set_level(LogLevel::kOff);
  LogLine{LogLevel::kInfo, "x", SimTime::zero()} << "no";
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LoggingTest, EnabledMatchesLevel) {
  Log::set_level(LogLevel::kDebug);
  EXPECT_TRUE(Log::enabled(LogLevel::kInfo));
  EXPECT_TRUE(Log::enabled(LogLevel::kDebug));
  EXPECT_FALSE(Log::enabled(LogLevel::kTrace));
}

TEST_F(LoggingTest, ConcurrentWritersProduceWholeOrderedLines) {
  // Two threads emit through the shared Log; the sink (invoked under the
  // Log mutex) must see whole lines only, and per-thread order must hold.
  // Run under BGPSIM_SANITIZE=thread this doubles as the race check.
  constexpr int kPerThread = 200;
  const auto emit = [](const char* tag) {
    for (int i = 0; i < kPerThread; ++i) {
      LogLine{LogLevel::kInfo, tag, SimTime::seconds(i)} << tag << ':' << i;
    }
  };
  std::thread a{emit, "thrA"};
  std::thread b{emit, "thrB"};
  a.join();
  b.join();

  ASSERT_EQ(captured_.size(), 2u * kPerThread);
  std::map<std::string, int> next_index;  // per-component expected counter
  for (const Captured& c : captured_) {
    const int i = next_index[c.component]++;
    // A torn or interleaved line would break this exact-match.
    EXPECT_EQ(c.message, c.component + ":" + std::to_string(i));
    EXPECT_EQ(c.when, SimTime::seconds(i));
  }
  EXPECT_EQ(next_index["thrA"], kPerThread);
  EXPECT_EQ(next_index["thrB"], kPerThread);
}

TEST_F(LoggingTest, InstanceTagPrefixesEveryMessage) {
  // Campaign worker processes tag themselves so interleaved multi-process
  // logs stay attributable; the tag must reach custom sinks too.
  Log::set_instance_tag("w3");
  LogLine{LogLevel::kInfo, "bgp", SimTime::zero()} << "update sent";
  Log::set_instance_tag("");
  LogLine{LogLevel::kInfo, "bgp", SimTime::zero()} << "untagged again";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].message, "[w3] update sent");
  EXPECT_EQ(captured_[1].message, "untagged again");
}

/// Counts how often it is streamed.
struct StreamProbe {
  int* calls;
  friend std::ostream& operator<<(std::ostream& os, const StreamProbe& p) {
    ++*p.calls;
    return os << "probe";
  }
};

TEST_F(LoggingTest, OffNeverStreamsArguments) {
  Log::set_level(LogLevel::kOff);
  int streamed = 0;
  int evaluated = 0;
  const auto expensive = [&] {
    ++evaluated;
    return StreamProbe{&streamed};
  };
  LogLine{LogLevel::kTrace, "x", SimTime::zero()} << StreamProbe{&streamed};
  BGPSIM_LOG(LogLevel::kTrace, "x", SimTime::zero()) << expensive();
  EXPECT_EQ(streamed, 0);
  EXPECT_EQ(evaluated, 0);  // the macro skips argument evaluation too
  EXPECT_TRUE(captured_.empty());

  Log::set_level(LogLevel::kTrace);
  BGPSIM_LOG(LogLevel::kTrace, "x", SimTime::zero()) << expensive();
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(streamed, 1);
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].message, "probe");
}

TEST_F(LoggingTest, MacroBindsAsOneStatementUnderIf) {
  // BGPSIM_LOG expands to an if/else; an enclosing unbraced if/else must
  // still pair its own else.
  bool took_else = false;
  const bool condition = false;
  if (condition)
    BGPSIM_LOG(LogLevel::kInfo, "x", SimTime::zero()) << "then";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LoggingTest, MultipleLinesInOrder) {
  LogLine{LogLevel::kInfo, "a", SimTime::zero()} << "first";
  LogLine{LogLevel::kInfo, "b", SimTime::zero()} << "second";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].message, "first");
  EXPECT_EQ(captured_[1].message, "second");
}

}  // namespace
}  // namespace bgpsim::sim
