/**
 * Last-level-cache capacity model.
 *
 * Fig. 11's headline effect is that intra-enclave communication costs no
 * MEE work when the communicated footprint fits inside the LLC ("the data
 * exist in plaintext within the CPU boundary"). A fully-associative LRU
 * set of cachelines captures exactly that capacity effect; i7-7700 = 8 MB.
 */
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "hw/types.h"

namespace nesgx::hw {

class LastLevelCache {
  public:
    explicit LastLevelCache(std::uint64_t capacityBytes = 8ull << 20);

    /** Touches the line containing `pa`; returns true on hit. The LRU
     *  list and the hit/miss counters mutate under an internal mutex —
     *  the LLC is the one genuinely global hardware structure every
     *  simulated core shares, so it carries its own lock instead of
     *  leaning on the machine-wide one. */
    bool touch(Paddr pa);

    /** Touches `count` consecutive lines starting at the line containing
     *  `pa` under one lock acquisition (the data-path hot loop).
     *  Returns the number of lines that hit. */
    std::uint64_t touchRange(Paddr pa, std::uint64_t count);

    /** Drops everything (used between benchmark configurations). */
    void flush();

    std::uint64_t hits() const
    {
        std::lock_guard<std::mutex> g(m_);
        return hits_;
    }
    std::uint64_t misses() const
    {
        std::lock_guard<std::mutex> g(m_);
        return misses_;
    }
    void resetStats()
    {
        std::lock_guard<std::mutex> g(m_);
        hits_ = misses_ = 0;
    }

  private:
    bool touchLocked(Paddr line);

    std::uint64_t capacityLines_;
    mutable std::mutex m_;
    std::list<Paddr> lru_;  // front = most recent
    std::unordered_map<Paddr, std::list<Paddr>::iterator> lines_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace nesgx::hw
