// Fixture-driven tests for tools/determinism_lint: each rule fires exactly
// once on its committed fixture, det-lint: allow(...) comments suppress
// every rule but shared-state, clean files exit 0, and the traversal skips
// fixtures/ directories so the deliberate violations never trip the
// repo-wide CI run.
//
// The binary under test and the fixture directory are injected by CMake as
// CLOUDQC_DETLINT_BIN / CLOUDQC_DETLINT_FIXTURES.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string command =
      std::string(CLOUDQC_DETLINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return run;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string fixture(const std::string& name) {
  return std::string(CLOUDQC_DETLINT_FIXTURES) + "/" + name;
}

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// Every rule fixture must produce exactly one finding, tagged with the
// expected rule id, and a failing exit code.
struct RuleCase {
  const char* file;
  const char* rule;
};

class DeterminismLintRule : public ::testing::TestWithParam<RuleCase> {};

TEST_P(DeterminismLintRule, FiresExactlyOnce) {
  const RuleCase& param = GetParam();
  const LintRun run = run_lint(fixture(param.file));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_occurrences(run.output, std::string("[") + param.rule + "]"),
            1)
      << run.output;
  EXPECT_NE(run.output.find("1 finding(s), 0 suppressed"), std::string::npos)
      << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, DeterminismLintRule,
    ::testing::Values(RuleCase{"unordered_iter.cpp", "unordered-iter"},
                      RuleCase{"raw_rand.cpp", "raw-rand"},
                      RuleCase{"wall_clock.cpp", "wall-clock"},
                      RuleCase{"thread_sleep.cpp", "thread-sleep"},
                      RuleCase{"pointer_key.cpp", "pointer-key"},
                      RuleCase{"raw_rng.cpp", "raw-rng"},
                      RuleCase{"src/raw_rng_src.cpp", "raw-rng"},
                      RuleCase{"src/shared_state_src.cpp", "shared-state"},
                      // An allow comment does not suppress shared-state.
                      RuleCase{"src/shared_state_allowed.cpp",
                               "shared-state"}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      std::string name = info.param.file;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DeterminismLint, AllowCommentsSuppressEveryStyle) {
  // suppressed.cpp carries a trailing, a preceding, and a multi-line
  // preceding allow comment — all three must count as suppressed and the
  // file must pass.
  const LintRun run = run_lint(fixture("suppressed.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s), 3 suppressed"), std::string::npos)
      << run.output;
}

TEST(DeterminismLint, CleanFileExitsZero) {
  const LintRun run = run_lint(fixture("clean.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s), 0 suppressed"), std::string::npos)
      << run.output;
}

TEST(DeterminismLint, WholeFixtureTreeFailsWithEveryRule) {
  // Scanning the fixture directory itself (explicitly named, so the
  // fixtures/ skip does not apply to the root) must surface all seven
  // rules.
  const LintRun run = run_lint(std::string(CLOUDQC_DETLINT_FIXTURES));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule : {"unordered-iter", "raw-rand", "wall-clock",
                           "thread-sleep", "pointer-key", "raw-rng",
                           "shared-state"}) {
    EXPECT_NE(run.output.find(std::string("[") + rule + "]"),
              std::string::npos)
        << "missing rule " << rule << " in:\n"
        << run.output;
  }
}

TEST(DeterminismLint, SharedStateExemptsTheThreadPool) {
  // The pool is the one place concurrency primitives may live.
  const LintRun run = run_lint(fixture("src/common/thread_pool.hpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s), 0 suppressed"), std::string::npos)
      << run.output;
}

TEST(DeterminismLint, TraversalSkipsFixtureDirectories) {
  // A violation inside a directory named fixtures/ is invisible to a
  // recursive scan of the parent (that is how the repo-wide CI run
  // coexists with these deliberately-bad files) but still reachable when
  // the file is named explicitly.
  char tmpl[] = "/tmp/detlint_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string root(dir);
  ASSERT_EQ(mkdir((root + "/fixtures").c_str(), 0755), 0);
  const std::string bad = root + "/fixtures/bad.cpp";
  {
    std::ofstream out(bad);
    out << "#include <cstdlib>\nint f() { return std::rand(); }\n";
  }
  {
    std::ofstream out(root + "/ok.cpp");
    out << "int g() { return 7; }\n";
  }

  const LintRun scan_root = run_lint(root);
  EXPECT_EQ(scan_root.exit_code, 0) << scan_root.output;
  EXPECT_NE(scan_root.output.find("1 file(s), 0 finding(s)"),
            std::string::npos)
      << scan_root.output;

  const LintRun scan_file = run_lint(bad);
  EXPECT_EQ(scan_file.exit_code, 1) << scan_file.output;
  EXPECT_NE(scan_file.output.find("[raw-rand]"), std::string::npos)
      << scan_file.output;

  std::remove(bad.c_str());
  std::remove((root + "/ok.cpp").c_str());
  rmdir((root + "/fixtures").c_str());
  rmdir(root.c_str());
}

TEST(DeterminismLint, ReportFileMatchesStdout) {
  char tmpl[] = "/tmp/detlint_report_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string report = std::string(dir) + "/report.txt";
  const LintRun run =
      run_lint("--report " + report + " " + fixture("raw_rand.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  std::ifstream in(report);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, run.output);
  std::remove(report.c_str());
  rmdir(dir);
}

TEST(DeterminismLint, UnknownPathIsAUsageError) {
  const LintRun run = run_lint(fixture("does_not_exist.cpp"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
