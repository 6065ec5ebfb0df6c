/**
 * Deterministic simulated clock.
 *
 * Every modelled hardware or software operation charges cycles here; all
 * reported latencies/throughputs in the benchmarks derive from this clock
 * at the testbed frequency (i7-7700, 3.6 GHz), which makes every
 * experiment bit-reproducible across machines.
 */
#pragma once

#include <atomic>
#include <cstdint>

namespace nesgx::hw {

class SimClock {
  public:
    /** Cycles per second; defaults to the paper's testbed base clock. */
    explicit SimClock(std::uint64_t hz = 3'600'000'000ull) : hz_(hz) {}

    /** Relaxed atomic accumulation: cycle charges commute, so the total
     *  is deterministic for a deterministic workload even when worker
     *  threads charge concurrently in `--threads N` mode. */
    void advance(std::uint64_t cycles)
    {
        cycles_.fetch_add(cycles, std::memory_order_relaxed);
    }

    std::uint64_t cycles() const
    {
        return cycles_.load(std::memory_order_relaxed);
    }
    std::uint64_t frequencyHz() const { return hz_; }

    double seconds() const { return double(cycles()) / double(hz_); }
    double micros() const { return seconds() * 1e6; }

    /** Converts a cycle delta to microseconds at this clock's frequency. */
    double cyclesToMicros(std::uint64_t cycles) const
    {
        return double(cycles) / double(hz_) * 1e6;
    }

    void reset() { cycles_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> cycles_{0};
    std::uint64_t hz_;
};

}  // namespace nesgx::hw
