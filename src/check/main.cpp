/**
 * nesgx_check — the orderliness checker CLI.
 *
 * Drives seeded random ENCLS/ENCLU interleavings through the model and
 * cross-checks the §VII-A invariants after every step (see oracle.h).
 * On a violation the failing sequence is shrunk to a minimal reproducer,
 * printed, and optionally written to a file for CI artifact upload.
 *
 *   nesgx_check --seeds 64 --steps 300 --tagged both --repro-out repro.txt
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/sequence.h"

namespace {

struct CliOptions {
    std::uint64_t firstSeed = 1;
    int seeds = 16;
    int steps = 300;
    bool runTagged = true;
    bool runFlush = true;
    bool helpOnly = false;
    bool dumpTrace = false;
    std::string reproOut;
};

bool
parseArgs(int argc, char** argv, CliOptions* opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto needValue = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--seeds") {
            const char* v = needValue("--seeds");
            if (!v) return false;
            opts->seeds = std::atoi(v);
        } else if (arg == "--steps") {
            const char* v = needValue("--steps");
            if (!v) return false;
            opts->steps = std::atoi(v);
        } else if (arg == "--seed") {
            const char* v = needValue("--seed");
            if (!v) return false;
            opts->firstSeed = std::strtoull(v, nullptr, 0);
        } else if (arg == "--tagged") {
            const char* v = needValue("--tagged");
            if (!v) return false;
            if (std::strcmp(v, "on") == 0) {
                opts->runTagged = true;
                opts->runFlush = false;
            } else if (std::strcmp(v, "off") == 0) {
                opts->runTagged = false;
                opts->runFlush = true;
            } else if (std::strcmp(v, "both") == 0) {
                opts->runTagged = true;
                opts->runFlush = true;
            } else {
                std::fprintf(stderr, "--tagged takes on|off|both\n");
                return false;
            }
        } else if (arg == "--trace") {
            opts->dumpTrace = true;
        } else if (arg == "--repro-out") {
            const char* v = needValue("--repro-out");
            if (!v) return false;
            opts->reproOut = v;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: nesgx_check [--seeds N] [--steps M] [--seed S]\n"
                "                   [--tagged on|off|both] [--repro-out F]\n"
                "                   [--trace]\n"
                "  --trace  append the ring-buffer event log to each\n"
                "           shrunk reproducer report\n");
            opts->helpOnly = true;
            return true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
    }
    return opts->seeds > 0 && opts->steps > 0;
}

int
reportFailure(const nesgx::check::RunFailure& raw, const CliOptions& opts)
{
    std::printf("violation found (seed=%llu, %zu steps); shrinking...\n",
                static_cast<unsigned long long>(raw.seed), raw.steps.size());
    nesgx::check::RunFailure shrunk = nesgx::check::shrinkFailure(raw);
    std::string report = nesgx::check::formatFailure(shrunk);
    if (opts.dumpTrace) {
        report += "event log (" + std::to_string(shrunk.traceLog.size()) +
                  " events, oldest first):\n";
        for (const std::string& line : shrunk.traceLog) {
            report += "  " + line + "\n";
        }
    }
    std::printf("%s", report.c_str());
    if (!opts.reproOut.empty()) {
        std::ofstream out(opts.reproOut);
        out << report;
        std::printf("reproducer written to %s\n", opts.reproOut.c_str());
    }
    return 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    CliOptions opts;
    if (!parseArgs(argc, argv, &opts)) return 2;
    if (opts.helpOnly) return 0;

    std::vector<bool> modes;
    if (opts.runTagged) modes.push_back(true);
    if (opts.runFlush) modes.push_back(false);

    for (bool tagged : modes) {
        std::printf("mode taggedTlb=%s: %d seeds x %d steps\n",
                    tagged ? "on" : "off", opts.seeds, opts.steps);
        for (int i = 0; i < opts.seeds; ++i) {
            nesgx::check::RunConfig config;
            config.seed = opts.firstSeed + std::uint64_t(i);
            config.steps = opts.steps;
            config.taggedTlb = tagged;
            auto failure = nesgx::check::runSeed(config);
            if (failure) return reportFailure(*failure, opts);
        }
    }
    std::printf("all invariants held: %d seeds x %d steps x %zu mode(s)\n",
                opts.seeds, opts.steps, modes.size());
    return 0;
}
