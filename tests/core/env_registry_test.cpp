// The knob registry (core/env.hpp) is the single list of runtime
// BGPSIM_* knobs: docs/RUNNING.md's knob table must list exactly its
// rows, and every "BGPSIM_..." string literal under src/ — the only way
// the tree reads a knob — must name one of them.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/env.hpp"

namespace bgpsim::core::env {
namespace {

const std::filesystem::path kRoot{BGPSIM_TEST_SOURCE_ROOT};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::set<std::string> registry_names() {
  std::set<std::string> names;
  for (const Knob& knob : registry()) names.insert(knob.name);
  return names;
}

/// Every match of `pattern`'s first capture group in `text`.
std::set<std::string> captures(const std::string& text,
                               const std::regex& pattern) {
  std::set<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

TEST(EnvRegistry, RunningDocTableMatchesTheRegistry) {
  // Table rows open with the knob name in backticks: | `BGPSIM_JOBS` | ...
  const std::set<std::string> documented =
      captures(slurp(kRoot / "docs" / "RUNNING.md"),
               std::regex{R"(\n\|\s*`(BGPSIM_[A-Z0-9_]+)`\s*\|)"});
  const std::set<std::string> registered = registry_names();
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.contains(name))
        << name << " has a docs/RUNNING.md row but is not in the registry";
  }
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.contains(name))
        << name << " is in the registry but has no docs/RUNNING.md row";
  }
}

TEST(EnvRegistry, EveryKnobLiteralUnderSrcIsRegistered) {
  const std::regex literal{R"re("(BGPSIM_[A-Z0-9_]+)")re"};
  const std::set<std::string> registered = registry_names();
  std::set<std::string> read;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator{kRoot / "src"}) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
    for (const std::string& name : captures(slurp(entry.path()), literal)) {
      EXPECT_TRUE(registered.contains(name))
          << entry.path() << " reads " << name
          << ", which is not in core::env::registry()";
      read.insert(name);
    }
  }
  // Not vacuous: the scan sees reads both in the registry's accessors and
  // below core (snap/'s prelude-cache capacity).
  EXPECT_TRUE(read.contains("BGPSIM_JOBS"));
  EXPECT_TRUE(read.contains("BGPSIM_SNAP_CACHE"));
}

}  // namespace
}  // namespace bgpsim::core::env
