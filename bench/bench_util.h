/**
 * Shared helpers for the table/figure reproduction binaries: table
 * printing, JSON reports, and world construction (flag parsing is
 * support/flags.h). Every binary prints (a) the paper's reported values
 * where applicable and (b) the values this reproduction measures on its
 * simulated clock, so EXPERIMENTS.md can be regenerated by running
 * every binary under build/bench/.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/compose.h"
#include "os/kernel.h"
#include "sdk/runtime.h"
#include "serve/histogram.h"
#include "sgx/machine.h"
#include "support/flags.h"

namespace nesgx::bench {

/** One percentile implementation for all binaries: the serving layer's
 *  exact-sample histogram (nearest-rank p50/p95/p99). */
using serve::Histogram;

/** Strict `--name value` flags, shared with nesgx_serve. */
using nesgx::Flags;

/**
 * Flat JSON object of a bench's measured values, dumped to the path
 * given by `--json <path>` (no-op when the flag is absent) so
 * trajectory files can be produced mechanically from any run.
 */
class JsonReport {
  public:
    void set(const std::string& key, double value)
    {
        values_.emplace_back(key, value);
    }

    void writeIfRequested(const Flags& flags) const
    {
        const std::string path = flags.str("json", "");
        if (path.empty()) return;
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            std::exit(2);
        }
        std::fprintf(f, "{\n");
        for (std::size_t i = 0; i < values_.size(); ++i) {
            // %.10g would emit bare `nan`/`inf` tokens — invalid JSON
            // that breaks every downstream json.load gate. A metric can
            // only go non-finite through a degenerate run (e.g. divide
            // by zero requests); report 0 and warn instead.
            double value = values_[i].second;
            if (!std::isfinite(value)) {
                std::fprintf(stderr,
                             "warning: json key \"%s\" is non-finite "
                             "(%g); writing 0\n",
                             values_[i].first.c_str(), value);
                value = 0.0;
            }
            std::fprintf(f, "  \"%s\": %.10g%s\n", values_[i].first.c_str(),
                         value, i + 1 < values_.size() ? "," : "");
        }
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("  [json written to %s]\n", path.c_str());
    }

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/** A full world: machine + OS + process + urts. */
struct BenchWorld {
    sgx::Machine machine;
    os::Kernel kernel;
    os::Pid pid;
    std::unique_ptr<sdk::Urts> urts;

    explicit BenchWorld(const sgx::Machine::Config& config)
        : machine(config), kernel(machine), pid(kernel.createProcess())
    {
        urts = std::make_unique<sdk::Urts>(kernel, pid);
        for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
            kernel.schedule(c, pid);
        }
    }
};

inline sgx::Machine::Config
defaultConfig(hw::CostPreset preset = hw::CostPreset::EmulatedNested)
{
    sgx::Machine::Config config;
    config.dramBytes = 256ull << 20;
    config.prmBase = 128ull << 20;
    config.prmBytes = 64ull << 20;
    config.preset = preset;
    return config;
}

inline void
header(const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

inline void
note(const std::string& text)
{
    std::printf("  %s\n", text.c_str());
}

}  // namespace nesgx::bench
