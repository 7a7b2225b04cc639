#include "mh/common/config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "mh/common/error.h"

namespace mh {
namespace {

TEST(ConfigTest, GetWithDefault) {
  Config c;
  EXPECT_EQ(c.get("dfs.name", "fallback"), "fallback");
  c.set("dfs.name", "value");
  EXPECT_EQ(c.get("dfs.name", "fallback"), "value");
}

TEST(ConfigTest, LaterSetWins) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get("k"), "2");
}

TEST(ConfigTest, TypedGetters) {
  Config c;
  c.setInt("dfs.replication", 2);
  c.setDouble("io.sort.spill.percent", 0.75);
  c.setBool("mapred.innode.combine", true);
  c.set("mapred.map.output.compression.codec", "mh-lz");
  EXPECT_EQ(c.get(keys::kDfsReplication), 2);
  EXPECT_DOUBLE_EQ(c.get(keys::kIoSortSpillPercent), 0.75);
  EXPECT_TRUE(c.get(keys::kInnodeCombine));
  EXPECT_EQ(c.get(keys::kMapOutputCodec), "mh-lz");
}

TEST(ConfigTest, TypedDefaults) {
  Config c;
  EXPECT_EQ(c.get(keys::kIoSortMb), 32);
  EXPECT_DOUBLE_EQ(c.get(keys::kReduceSlowstart), 0.05);
  EXPECT_FALSE(c.get(keys::kInnodeCombine));
  EXPECT_EQ(c.get(keys::kDatanodeRack), "/default-rack");
}

TEST(ConfigTest, BoolAcceptsVariants) {
  Config c;
  for (const char* yes : {"YES", "True", "1"}) {
    c.set("mapred.innode.combine", yes);
    EXPECT_TRUE(c.get(keys::kInnodeCombine)) << yes;
  }
  c.set("mapred.innode.combine", "0");
  EXPECT_FALSE(c.get(keys::kInnodeCombine));
}

TEST(ConfigTest, MalformedValuesThrow) {
  // Unparsable, out of range (NaN included) and not among the choices.
  Config c;
  c.set("io.sort.mb", "12x");
  c.set("mapred.reduce.slowstart.completed.maps", "one.five");
  c.set("mapred.innode.combine", "maybe");
  c.set("dfs.replication", "0");
  c.set("io.sort.spill.percent", "nan");
  c.set("mapred.map.output.compression.codec", "lz4");
  EXPECT_THROW(c.get(keys::kIoSortMb), InvalidArgumentError);
  EXPECT_THROW(c.get(keys::kReduceSlowstart), InvalidArgumentError);
  EXPECT_THROW(c.get(keys::kInnodeCombine), InvalidArgumentError);
  EXPECT_THROW(c.get(keys::kDfsReplication), InvalidArgumentError);
  EXPECT_THROW(c.get(keys::kIoSortSpillPercent), InvalidArgumentError);
  EXPECT_THROW(c.get(keys::kMapOutputCodec), InvalidArgumentError);
  EXPECT_THROW(c.validate(keys::Scope::kDaemon), InvalidArgumentError);
}

TEST(ConfigTest, MergeOverwrites) {
  Config a, b;
  a.set("x", "1");
  a.set("y", "1");
  b.set("y", "2");
  b.set("z", "2");
  a.merge(b);
  EXPECT_EQ(a.get("x"), "1");
  EXPECT_EQ(a.get("y"), "2");
  EXPECT_EQ(a.get("z"), "2");
}

TEST(ConfigTest, ContainsAndRaw) {
  Config c;
  EXPECT_FALSE(c.contains("k"));
  c.set("k", "");
  EXPECT_TRUE(c.contains("k"));
  EXPECT_TRUE(c.getRaw("k").has_value());
  EXPECT_FALSE(c.getRaw("missing").has_value());
}

TEST(ConfigTest, ConfigCatalogMatchesDocs) {
  // The "## Keys" table of docs/CONFIG.md has one row per key of the key
  // table, with the same type, default, range and scope, and no other row.
  std::ifstream in(std::string(MH_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.good()) << "docs/CONFIG.md not readable";
  std::map<std::string, std::vector<std::string>> documented;
  bool in_keys = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## ")) in_keys = line == "## Keys";
    if (!in_keys || !line.starts_with("| `")) continue;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(cell.substr(1, cell.size() - 2));  // " text "
    }
    ASSERT_EQ(cells.size(), 6u) << line;
    const std::string name = cells[0].substr(1, cells[0].size() - 2);
    cells.erase(cells.begin());
    cells.pop_back();  // description
    EXPECT_TRUE(documented.emplace(name, cells).second) << "twice: " << name;
  }

  const auto text = [](const auto& value) {
    std::ostringstream out;
    out << std::boolalpha << value;
    return out.str();
  };
  const auto cellsOf = [&](const auto& key) -> std::vector<std::string> {
    using T = std::decay_t<decltype(key.def)>;
    const std::string scope = key.scope == keys::Scope::kJob ? "job" : "daemon";
    if constexpr (std::is_same_v<T, std::string_view>) {
      std::string choices(key.choices);
      for (size_t at; (at = choices.find('|')) != std::string::npos;) {
        choices.replace(at, 1, ", ");
      }
      return {key.choices.empty() ? "string" : "enum",
              key.def.empty() ? "(empty)" : "`" + text(key.def) + "`",
              key.choices.empty() ? "any" : choices, scope};
    } else {
      const std::string range =
          std::is_same_v<T, bool>
              ? "—"
              : "[" + text(key.min) + ", " + text(key.max) + "]";
      return {std::is_same_v<T, bool>     ? "bool"
              : std::is_same_v<T, double> ? "double"
                                          : "int",
              "`" + text(key.def) + "`", range, scope};
    }
  };
  std::set<std::string> table;
  keys::forEach([&](const auto& key) {
    table.emplace(key.name);
    const auto it = documented.find(std::string(key.name));
    if (it == documented.end()) {
      ADD_FAILURE() << key.name << " is missing from docs/CONFIG.md";
    } else {
      EXPECT_EQ(it->second, cellsOf(key)) << key.name;
    }
  });
  for (const auto& [name, cells] : documented) {
    EXPECT_TRUE(table.contains(name))
        << name << " is documented but not in the key table";
  }
}

}  // namespace
}  // namespace mh
