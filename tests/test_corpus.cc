/**
 * Regression corpus replay: every committed program under
 * tests/corpus/ runs through the three-way differential oracle with
 * invariant checkers enabled and must come back clean. New fuzz
 * findings get their minimized program.s committed here so the
 * divergence they exposed stays fixed.
 *
 * The corpus directory is baked in at compile time
 * (SLIPSTREAM_CORPUS_DIR) so the test binary works from any cwd.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "fuzz/oracle.hh"

namespace slip
{
namespace
{

namespace fs = std::filesystem;

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const fs::directory_entry &e :
         fs::directory_iterator(SLIPSTREAM_CORPUS_DIR)) {
        if (e.path().extension() == ".s")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(Corpus, DirectoryIsNonEmpty)
{
    EXPECT_FALSE(corpusFiles().empty())
        << "no .s files under " << SLIPSTREAM_CORPUS_DIR;
}

TEST(Corpus, EveryProgramReplaysCleanThroughOracle)
{
    // The forced degraded-leg transition warns on every program.
    setLogQuiet(true);
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        const Program program = assemble(slurp(path));
        const fuzz::OracleVerdict v = fuzz::runOracle(program);
        EXPECT_FALSE(v.diverged) << v.report;
    }
    setLogQuiet(false);
}

TEST(Corpus, ReplayIsDeterministic)
{
    // Two oracle evaluations of the same program must agree exactly —
    // the property that makes a committed repro a stable regression.
    setLogQuiet(true);
    const std::vector<std::string> files = corpusFiles();
    ASSERT_FALSE(files.empty());
    const Program program = assemble(slurp(files.front()));
    const fuzz::OracleVerdict a = fuzz::runOracle(program);
    const fuzz::OracleVerdict b = fuzz::runOracle(program);
    EXPECT_EQ(a.diverged, b.diverged);
    EXPECT_EQ(a.report, b.report);
    setLogQuiet(false);
}

} // namespace
} // namespace slip
