/**
 * Graceful-interruption contract of the slip_campaign binary: SIGINT
 * exits 130 and SIGTERM (what supervisors and CI runners send) exits
 * 143 — both after printing the resume hint — so a killed campaign is
 * distinguishable from a failed one and restartable with --resume.
 * Spawns the real binary (path injected by CMake) and signals it
 * mid-campaign. Also checks that an option value that does not fit is
 * a usage error (exit 2), not a campaign run with a wrapped value.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

namespace fs = std::filesystem;

struct CampaignRun
{
    int exitCode = -1;
    bool signaled = false; // died OF the signal instead of handling it
    std::string stderrText;
};

/**
 * Start slip_campaign on a long campaign, wait until it has journaled
 * at least one trial (the handler is installed before the first
 * trial runs), send `sig`, and reap it.
 */
CampaignRun
interruptCampaign(int sig, const std::string &scratch)
{
    CampaignRun run;
    const std::string journal = scratch + "/journal.jsonl";
    const std::string errPath = scratch + "/stderr.txt";

    const pid_t pid = fork();
    if (pid == 0) {
        const int errFd =
            open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        dup2(errFd, STDERR_FILENO);
        const int nullFd = open("/dev/null", O_WRONLY);
        dup2(nullFd, STDOUT_FILENO);
        // Enough trials that the campaign is still running when the
        // signal lands (a test-size trial is milliseconds; 512 of
        // them is seconds).
        execl(SLIP_CAMPAIGN_BIN, "slip_campaign", "--size", "test",
              "--trials", "512", "--workloads", "compress", "--workers",
              "1", "--journal", journal.c_str(), "--quarantine",
              (scratch + "/quarantine").c_str(), (char *)nullptr);
        _exit(127);
    }
    EXPECT_GT(pid, 0);

    // Wait for evidence the campaign (and thus the handler) is live.
    bool journaled = false;
    for (int spin = 0; spin < 2000; ++spin) {
        struct stat st{};
        if (stat(journal.c_str(), &st) == 0 && st.st_size > 0) {
            journaled = true;
            break;
        }
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid) {
            // Died before journaling anything — report and bail.
            run.exitCode =
                WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            std::ifstream in(errPath);
            std::ostringstream buf;
            buf << in.rdbuf();
            run.stderrText = buf.str();
            return run;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(journaled) << "campaign never journaled a trial";

    kill(pid, sig);
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    run.signaled = WIFSIGNALED(status);
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

    std::ifstream in(errPath);
    std::ostringstream buf;
    buf << in.rdbuf();
    run.stderrText = buf.str();
    return run;
}

struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/slip_signal_test.XXXXXX";
        path = mkdtemp(tmpl) ? tmpl : "";
        EXPECT_FALSE(path.empty());
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

TEST(CampaignSignals, SigintExits130WithResumeHint)
{
    ScratchDir dir;
    const CampaignRun run = interruptCampaign(SIGINT, dir.path);
    EXPECT_FALSE(run.signaled) << "SIGINT killed the process instead "
                                  "of being handled";
    EXPECT_EQ(run.exitCode, 130) << run.stderrText;
    EXPECT_NE(run.stderrText.find("--resume"), std::string::npos)
        << run.stderrText;
}

TEST(CampaignSignals, SigtermExits143WithResumeHint)
{
    ScratchDir dir;
    const CampaignRun run = interruptCampaign(SIGTERM, dir.path);
    EXPECT_FALSE(run.signaled) << "SIGTERM killed the process instead "
                                  "of being handled";
    EXPECT_EQ(run.exitCode, 143) << run.stderrText;
    EXPECT_NE(run.stderrText.find("--resume"), std::string::npos)
        << run.stderrText;
}

/** Run slip_campaign to completion with `args`; its exit status. */
int
runCampaign(const std::vector<std::string> &args, const std::string &scratch)
{
    const pid_t pid = fork();
    if (pid == 0) {
        const int nullFd = open("/dev/null", O_WRONLY);
        dup2(nullFd, STDOUT_FILENO);
        dup2(nullFd, STDERR_FILENO);
        std::vector<std::string> full = {
            "slip_campaign", "--size", "test", "--workloads", "compress",
            "--journal", scratch + "/journal.jsonl", "--quarantine",
            scratch + "/quarantine"};
        full.insert(full.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : full)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        execv(SLIP_CAMPAIGN_BIN, argv.data());
        _exit(127);
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CampaignArgs, ValuesThatDoNotFitExit2)
{
    ScratchDir dir;
    // 2^32 trials once wrapped to zero trials, and -1 to seed 2^64-1;
    // both campaigns ran and exited 0.
    EXPECT_EQ(runCampaign({"--trials", "4294967296"}, dir.path), 2);
    EXPECT_EQ(runCampaign({"--seed", "-1"}, dir.path), 2);
    EXPECT_EQ(runCampaign({"--workers", "+2"}, dir.path), 2);
    EXPECT_FALSE(fs::exists(dir.path + "/journal.jsonl"));
}

} // namespace
