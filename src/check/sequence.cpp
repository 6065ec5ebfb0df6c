#include "check/sequence.h"

#include <sstream>

namespace nesgx::check {

namespace {

/** Relative pick weight per op when its rough precondition holds. The
 *  build/enter ops dominate so sequences reach deep states; teardown and
 *  hostile ops stay rare enough not to raze the world constantly. */
struct WeightedOp {
    Op op;
    std::uint32_t weight;
};

constexpr WeightedOp kWeights[] = {
    {Op::Build, 25},
    {Op::AddPage, 25},
    {Op::Access, 28},
    {Op::Eenter, 22},
    {Op::Init, 18},
    {Op::Neenter, 16},
    {Op::Eresume, 14},
    {Op::Eexit, 12},
    {Op::Neexit, 12},
    {Op::Associate, 10},
    {Op::Create, 8},
    {Op::Aex, 7},
    {Op::Evict, 6},
    {Op::Reload, 6},
    {Op::EvictAll, 4},
    {Op::ReloadAll, 4},
    {Op::Destroy, 4},
    {Op::EblockRaw, 3},
    {Op::EtrackRaw, 3},
    {Op::HostileEvict, 3},
    {Op::Schedule, 3},
    {Op::FaultNextEextend, 2},
};

bool
anySlot(const CheckWorld& world, bool (*pred)(const CheckWorld&, int))
{
    for (int s = 0; s < CheckWorld::kSlots; ++s) {
        if (pred(world, s)) return true;
    }
    return false;
}

bool
enabled(const CheckWorld& world, Op op)
{
    auto created = [](const CheckWorld& w, int s) { return w.slotCreated(s); };
    auto addable = [](const CheckWorld& w, int s) {
        return w.slotCreated(s) && !w.slotInitialized(s) && !w.slotFullyAdded(s);
    };
    auto initReady = [](const CheckWorld& w, int s) {
        return w.slotFullyAdded(s) && !w.slotInitialized(s);
    };
    auto initialized = [](const CheckWorld& w, int s) {
        return w.slotInitialized(s);
    };
    auto hasPages = [](const CheckWorld& w, int s) { return w.slotHasPages(s); };

    auto anyCoreAtLeast = [&world](std::size_t depth) {
        for (int c = 0; c < CheckWorld::kCores; ++c) {
            if (world.coreDepth(c) >= depth) return true;
        }
        return false;
    };

    switch (op) {
        case Op::Create:
            return anySlot(world, +[](const CheckWorld& w, int s) {
                return !w.slotCreated(s);
            });
        case Op::AddPage: return anySlot(world, +addable);
        case Op::Init: return anySlot(world, +initReady);
        case Op::Build:
            return anySlot(world, +[](const CheckWorld& w, int s) {
                return !w.slotInitialized(s);
            });
        case Op::Associate: {
            int ready = 0;
            for (int s = 0; s < CheckWorld::kSlots; ++s) {
                if (world.slotInitialized(s)) ++ready;
            }
            return ready >= 2;
        }
        case Op::Destroy: return anySlot(world, +created);
        case Op::Eenter: return anySlot(world, +initialized);
        case Op::Eexit: return anyCoreAtLeast(1);
        case Op::Neenter: return anyCoreAtLeast(1) && anySlot(world, +initialized);
        case Op::Neexit: return anyCoreAtLeast(2);
        case Op::Aex: return anyCoreAtLeast(1);
        case Op::Eresume: return world.anyKnownTcs();
        case Op::Evict: return anySlot(world, +hasPages);
        case Op::Reload: return anySlot(world, +created);
        case Op::EblockRaw: return anySlot(world, +hasPages);
        case Op::EtrackRaw: return anySlot(world, +created);
        case Op::HostileEvict: return anySlot(world, +hasPages);
        case Op::Access: return true;
        case Op::Schedule: return true;
        case Op::FaultNextEextend: return true;
        case Op::EvictAll: return anySlot(world, +hasPages);
        case Op::ReloadAll: return anySlot(world, +created);
        // Self-contained (own untrusted page, own ring); drawn from the
        // tail weight below, never from kWeights.
        case Op::SwitchlessPostDrain: return true;
        // Composite builds whatever it needs itself.
        case Op::DeepChain: return true;
    }
    return false;
}

}  // namespace

Step
SequenceGen::next(const CheckWorld& world)
{
    Step step;
    // The two self-contained ops are weighted after the table: a pick
    // past every weighted entry lands in their tail range.
    constexpr std::uint32_t kSwitchlessWeight = 5;
    constexpr std::uint32_t kDeepChainWeight = 4;
    // Chaos fraction: a fully random step, preconditions be damned. This
    // is where the sequences no sane runtime would issue come from.
    if (rng_.nextBelow(100) < 8) {
        step.op = Op(rng_.nextBelow(kOpCount));
    } else {
        std::uint64_t total = kSwitchlessWeight + kDeepChainWeight;
        for (const auto& w : kWeights) {
            if (enabled(world, w.op)) total += w.weight;
        }
        std::uint64_t pick = rng_.nextBelow(total);
        bool weighted = false;
        for (const auto& w : kWeights) {
            if (!enabled(world, w.op)) continue;
            if (pick < w.weight) {
                step.op = w.op;
                weighted = true;
                break;
            }
            pick -= w.weight;
        }
        if (!weighted) {
            step.op = pick < kSwitchlessWeight ? Op::SwitchlessPostDrain
                                               : Op::DeepChain;
        }
    }
    step.core = std::uint8_t(rng_.nextBelow(CheckWorld::kCores));
    step.slotA = std::uint8_t(rng_.nextBelow(CheckWorld::kSlots));
    step.slotB = std::uint8_t(rng_.nextBelow(CheckWorld::kSlots));
    step.index = std::uint8_t(rng_.nextBelow(256));
    return step;
}

std::optional<RunFailure>
runSeed(const RunConfig& config)
{
    CheckWorld::Config wc;
    wc.taggedTlb = config.taggedTlb;
    CheckWorld world(wc);
    SequenceGen gen(config.seed);
    InvariantOracle oracle;
    TraceOracle traceOracle;

    std::vector<Step> steps;
    steps.reserve(std::size_t(config.steps));
    for (int i = 0; i < config.steps; ++i) {
        Step step = gen.next(world);
        steps.push_back(step);
        (void)world.apply(step);
        auto violation =
            oracle.check(world.machine(), world.kernel(), world.orphans());
        if (!violation) violation = traceOracle.consume(world.ring());
        if (violation) {
            return RunFailure{std::move(steps), std::move(*violation),
                              config.seed, config.taggedTlb,
                              world.ring().formatAll()};
        }
    }
    if (auto violation = traceOracle.finish()) {
        return RunFailure{std::move(steps), std::move(*violation),
                          config.seed, config.taggedTlb,
                          world.ring().formatAll()};
    }
    return std::nullopt;
}

std::optional<Violation>
replay(const std::vector<Step>& steps, bool taggedTlb,
       std::vector<std::string>* traceOut)
{
    CheckWorld::Config wc;
    wc.taggedTlb = taggedTlb;
    CheckWorld world(wc);
    InvariantOracle oracle;
    TraceOracle traceOracle;
    for (const Step& step : steps) {
        (void)world.apply(step);
        auto violation =
            oracle.check(world.machine(), world.kernel(), world.orphans());
        if (!violation) violation = traceOracle.consume(world.ring());
        if (violation) {
            if (traceOut) *traceOut = world.ring().formatAll();
            return violation;
        }
    }
    if (auto violation = traceOracle.finish()) {
        if (traceOut) *traceOut = world.ring().formatAll();
        return violation;
    }
    return std::nullopt;
}

RunFailure
shrinkFailure(const RunFailure& failure)
{
    RunFailure best = failure;
    int budget = 600;

    // Drop chunks of halving size; keep a removal iff the replay still
    // breaks the same rule. Same-rule (not same-message) keeps shrinks
    // honest without pinning them to incidental addresses.
    for (std::size_t chunk = std::max<std::size_t>(best.steps.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
        bool removedAny = true;
        while (removedAny && budget > 0) {
            removedAny = false;
            for (std::size_t at = 0;
                 at + 1 < best.steps.size() && budget > 0;) {
                std::size_t n = std::min(chunk, best.steps.size() - 1 - at);
                if (n == 0) break;
                std::vector<Step> candidate = best.steps;
                candidate.erase(candidate.begin() + long(at),
                                candidate.begin() + long(at + n));
                --budget;
                std::vector<std::string> traceLog;
                auto violation = replay(candidate, best.taggedTlb, &traceLog);
                if (violation && violation->rule == best.violation.rule) {
                    best.steps = std::move(candidate);
                    best.violation = std::move(*violation);
                    best.traceLog = std::move(traceLog);
                    removedAny = true;
                } else {
                    at += n;
                }
            }
        }
        if (chunk == 1) break;
    }
    return best;
}

std::string
formatSteps(const std::vector<Step>& steps)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step& s = steps[i];
        os << "  " << i + 1 << ". " << opName(s.op)
           << " core=" << int(s.core % CheckWorld::kCores)
           << " slotA=" << char('A' + s.slotA % CheckWorld::kSlots)
           << " slotB=" << char('A' + s.slotB % CheckWorld::kSlots)
           << " index=" << int(s.index) << "\n";
    }
    return os.str();
}

std::string
formatFailure(const RunFailure& failure)
{
    std::ostringstream os;
    os << "invariant violated: " << ruleName(failure.violation.rule) << "\n"
       << "  " << failure.violation.message << "\n"
       << "seed=" << failure.seed
       << " taggedTlb=" << (failure.taggedTlb ? "on" : "off")
       << " steps=" << failure.steps.size() << "\n"
       << "reproducer:\n"
       << formatSteps(failure.steps);
    return os.str();
}

}  // namespace nesgx::check
