/**
 * Sequence generation, execution, and failure shrinking for the
 * orderliness checker.
 *
 * SequenceGen produces seeded pseudo-random leaf sequences. Most of the
 * time it is precondition-aware — it weights toward operations that can
 * make progress from the current world state, so sequences actually
 * build, enter, nest, evict and destroy enclaves instead of bouncing
 * off "not created yet" forever. A small chaos fraction ignores the
 * preconditions entirely, which is where most of the out-of-order
 * coverage comes from.
 *
 * runSeed() executes one generated sequence, consulting the
 * InvariantOracle after every step; the first violation stops the run.
 * shrinkFailure() then replays greedily-shortened copies of the failing
 * prefix (delta debugging over step chunks) until no single chunk can
 * be dropped while reproducing the same broken rule, yielding the
 * minimal reproducer the CLI and the tests print.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/check_world.h"
#include "check/oracle.h"
#include "support/rng.h"

namespace nesgx::check {

/** Precondition-aware seeded step generator over the full op set,
 *  including the SwitchlessPostDrain ring cycle and the DeepChain
 *  composite. */
class SequenceGen {
  public:
    explicit SequenceGen(std::uint64_t seed) : rng_(seed) {}

    Step next(const CheckWorld& world);

  private:
    Rng rng_;
};

struct RunConfig {
    std::uint64_t seed = 1;
    int steps = 300;
    bool taggedTlb = true;
};

struct RunFailure {
    std::vector<Step> steps;  ///< prefix ending in the violating step
    Violation violation;
    std::uint64_t seed = 0;
    bool taggedTlb = true;
    /** Formatted ring-buffer event log at the failing step (one line per
     *  event, oldest first); see CheckWorld::ring(). */
    std::vector<std::string> traceLog;
};

/** Runs one seeded sequence; nullopt when every invariant held. */
std::optional<RunFailure> runSeed(const RunConfig& config);

/**
 * Replays a fixed sequence; returns the first violation if any. When
 * `traceOut` is non-null it receives the formatted event log captured up
 * to (and including) the violating step.
 */
std::optional<Violation> replay(const std::vector<Step>& steps,
                                bool taggedTlb,
                                std::vector<std::string>* traceOut = nullptr);

/**
 * Greedy delta-debugging shrink: drops chunks (halving the chunk size
 * down to single steps) as long as the same rule still breaks, bounded
 * by a replay budget.
 */
RunFailure shrinkFailure(const RunFailure& failure);

/** Human-readable numbered step listing (the reproducer format). */
std::string formatSteps(const std::vector<Step>& steps);

/** Formats a full failure report: seed, mode, violation, steps. */
std::string formatFailure(const RunFailure& failure);

}  // namespace nesgx::check
