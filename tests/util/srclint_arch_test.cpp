// Architecture-analysis tests: a fixture repository is generated on disk
// with a seeded include cycle, a layering violation, and a header missing
// #pragma once; the analyzer must find exactly those (pinned as golden
// JSON/SARIF), and the *real* repository must come back violation-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "support/test_dir.hpp"
#include "util/srclint.hpp"

namespace mmog::util::lint {
namespace {

namespace fs = std::filesystem;

void write(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << content;
}

/// Two modules, alpha and beta: the CMake link graph says beta -> alpha,
/// but alpha's header includes beta's — a layering violation that also
/// closes an include cycle. One extra header is missing #pragma once.
class SrcLintArchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    write(root_ / "src/alpha/CMakeLists.txt",
          "add_library(mmog_alpha a.cpp)\n");
    write(root_ / "src/beta/CMakeLists.txt",
          "add_library(mmog_beta b.cpp)\n"
          "target_link_libraries(mmog_beta PUBLIC mmog_alpha)\n");
    write(root_ / "src/alpha/a.hpp",
          "#pragma once\n"
          "#include \"beta/b.hpp\"\n"  // seeded violation + cycle edge
          "int alpha_f();\n");
    write(root_ / "src/alpha/a.cpp",
          "#include \"alpha/a.hpp\"\n"
          "int alpha_f() { return 1; }\n");
    write(root_ / "src/beta/b.hpp",
          "#pragma once\n"
          "int beta_f();\n");
    write(root_ / "src/beta/b.cpp",
          "#include \"beta/b.hpp\"\n"
          "#include \"alpha/a.hpp\"\n"  // legal: beta links alpha
          "int beta_f() { return alpha_f(); }\n");
    write(root_ / "src/beta/nopragma.hpp", "int beta_g();\n");
  }

  const test::TestDir dir_;
  const fs::path root_ = dir_.path();
};

TEST_F(SrcLintArchTest, GraphParsesModulesAndLinkClosure) {
  const auto graph = build_architecture_graph(root_.string());
  EXPECT_EQ(graph.src_modules, (std::vector<std::string>{"alpha", "beta"}));
  // Link DAG: beta -> alpha, alpha is a leaf.
  EXPECT_TRUE(graph.link_deps.at("alpha").empty());
  EXPECT_EQ(graph.link_deps.at("beta"), (std::set<std::string>{"alpha"}));
  // Closures include self.
  EXPECT_EQ(graph.allowed.at("alpha"), (std::set<std::string>{"alpha"}));
  EXPECT_EQ(graph.allowed.at("beta"),
            (std::set<std::string>{"alpha", "beta"}));
  // Observed cross-module edges: alpha->beta (the violation) and
  // beta->alpha (legal); same-module includes are not sites.
  ASSERT_EQ(graph.sites.size(), 2u);
  EXPECT_EQ(graph.sites[0].from_module, "alpha");
  EXPECT_EQ(graph.sites[0].to_module, "beta");
  EXPECT_EQ(graph.sites[0].file, "src/alpha/a.hpp");
  EXPECT_EQ(graph.sites[0].line, 2u);
  EXPECT_EQ(graph.sites[1].from_module, "beta");
  EXPECT_EQ(graph.sites[1].to_module, "alpha");
}

TEST_F(SrcLintArchTest, SeededViolationsAreFound) {
  const auto result = lint_repo(root_.string());
  std::vector<std::string> rules;
  for (const auto& f : result.findings) rules.push_back(f.rule);
  EXPECT_EQ(rules, (std::vector<std::string>{"include-cycle",
                                             "layer-violation",
                                             "pragma-once"}));
  EXPECT_EQ(result.findings[0].path, "src/alpha/a.hpp");
  EXPECT_EQ(result.findings[0].line, 2u);
  EXPECT_EQ(result.findings[0].message,
            "include cycle among src modules: alpha -> beta -> alpha");
  EXPECT_EQ(result.findings[1].path, "src/alpha/a.hpp");
  EXPECT_EQ(result.findings[1].line, 2u);
  EXPECT_EQ(result.findings[2].path, "src/beta/nopragma.hpp");
  EXPECT_EQ(result.findings[2].line, 1u);
}

TEST_F(SrcLintArchTest, GoldenJson) {
  const auto result = lint_repo(root_.string());
  EXPECT_EQ(
      findings_to_json(result.findings),
      "{\"schema\":1,\"kind\":\"mmog-lint\",\"findings\":["
      "{\"path\":\"src/alpha/a.hpp\",\"line\":2,\"rule\":\"include-cycle\","
      "\"message\":\"include cycle among src modules: alpha -> beta -> "
      "alpha\"},"
      "{\"path\":\"src/alpha/a.hpp\",\"line\":2,\"rule\":\"layer-violation\","
      "\"message\":\"module 'alpha' must not include 'beta': the CMake link "
      "graph allows only nothing\"},"
      "{\"path\":\"src/beta/nopragma.hpp\",\"line\":1,"
      "\"rule\":\"pragma-once\",\"message\":\"header missing #pragma "
      "once\"}"
      "],\"count\":3}\n");
}

TEST_F(SrcLintArchTest, GoldenSarif) {
  const auto result = lint_repo(root_.string());
  const auto sarif = findings_to_sarif(result.findings);
  // Envelope pinned exactly; the (long) rule catalog in between is covered
  // by the substring checks below.
  EXPECT_EQ(sarif.rfind("{\"$schema\":"
                        "\"https://json.schemastore.org/sarif-2.1.0.json\","
                        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":"
                        "{\"driver\":{\"name\":\"mmog_lint\",",
                        0),
            0u);
  for (const auto& rule : rule_catalog()) {
    EXPECT_NE(sarif.find("{\"id\":\"" + std::string(rule.name) + "\""),
              std::string::npos)
        << rule.name;
  }
  // The results array is pinned exactly (golden).
  const std::string golden_results =
      "\"results\":["
      "{\"ruleId\":\"include-cycle\",\"level\":\"error\","
      "\"message\":{\"text\":\"include cycle among src modules: alpha -> "
      "beta -> alpha\"},\"locations\":[{\"physicalLocation\":"
      "{\"artifactLocation\":{\"uri\":\"src/alpha/a.hpp\"},"
      "\"region\":{\"startLine\":2}}}]},"
      "{\"ruleId\":\"layer-violation\",\"level\":\"error\","
      "\"message\":{\"text\":\"module 'alpha' must not include 'beta': the "
      "CMake link graph allows only nothing\"},"
      "\"locations\":[{\"physicalLocation\":"
      "{\"artifactLocation\":{\"uri\":\"src/alpha/a.hpp\"},"
      "\"region\":{\"startLine\":2}}}]},"
      "{\"ruleId\":\"pragma-once\",\"level\":\"error\","
      "\"message\":{\"text\":\"header missing #pragma once\"},"
      "\"locations\":[{\"physicalLocation\":"
      "{\"artifactLocation\":{\"uri\":\"src/beta/nopragma.hpp\"},"
      "\"region\":{\"startLine\":1}}}]}"
      "]}]}\n";
  ASSERT_GE(sarif.size(), golden_results.size());
  EXPECT_EQ(sarif.substr(sarif.size() - golden_results.size()),
            golden_results);
}

TEST_F(SrcLintArchTest, DotMarksViolationEdgesRed) {
  const auto graph = build_architecture_graph(root_.string());
  const auto dot = to_dot(graph);
  EXPECT_NE(dot.find("\"alpha\" -> \"beta\" [label=\"1\", color=red, "
                     "penwidth=2];"),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("\"beta\" -> \"alpha\" [label=\"1\"];"),
            std::string::npos)
      << dot;
}

TEST_F(SrcLintArchTest, CommentedOutIncludesDoNotCount) {
  write(root_ / "src/beta/extra.cpp",
        "// #include \"gamma/c.hpp\"\n"
        "/* #include \"alpha/a.hpp\" */\n"
        "int beta_extra() { return 0; }\n");
  const auto graph = build_architecture_graph(root_.string());
  for (const auto& site : graph.sites) {
    EXPECT_NE(site.file, "src/beta/extra.cpp");
  }
}

TEST_F(SrcLintArchTest, FixingTheLinkGraphClearsTheViolation) {
  // Declaring alpha -> beta in CMake makes the include edge legal — but the
  // cycle (a property of the include graph, not the link graph) remains.
  write(root_ / "src/alpha/CMakeLists.txt",
        "add_library(mmog_alpha a.cpp)\n"
        "target_link_libraries(mmog_alpha PUBLIC mmog_beta)\n");
  const auto graph = build_architecture_graph(root_.string());
  const auto findings = lint_architecture(graph);
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  EXPECT_EQ(rules, (std::vector<std::string>{"include-cycle"}));
}

#ifdef MMOG_SOURCE_DIR
TEST(SrcLintRepoPropertyTest, RealRepositoryIsViolationFree) {
  const auto result = lint_repo(MMOG_SOURCE_DIR);
  for (const auto& f : result.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  // Graph sanity: the real module set is present and util is the base
  // layer — nothing under src/util includes another module's headers.
  const auto& modules = result.graph.src_modules;
  for (const char* expected : {"core", "dc", "obs", "predict", "util"}) {
    EXPECT_NE(std::find(modules.begin(), modules.end(), expected),
              modules.end())
        << expected;
  }
  for (const auto& site : result.graph.sites) {
    EXPECT_NE(site.from_module, "util")
        << site.file << ":" << site.line << " includes " << site.to_module;
  }
  EXPECT_TRUE(result.graph.allowed.at("core").count("util") > 0);
}
#endif

}  // namespace
}  // namespace mmog::util::lint
