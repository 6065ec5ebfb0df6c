/**
 * Strict `--name value` flag parsing for the command-line binaries
 * (nesgx_serve and the bench reproductions). Every malformed input is a
 * usage error that exits 2 with an "error:" line on stderr, never a
 * silent default, a wrapped number or an uncaught-exception abort.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nesgx {

/** Levenshtein distance, for "did you mean" suggestions. */
inline std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

/** The candidate closest to a typo'd `name`, or "" when none is within
 *  max(2, |name|/2) edits (anything further is noise, not a typo). */
template <typename Names>
std::string_view
closestName(std::string_view name, const Names& candidates)
{
    std::size_t best = std::size_t(-1);
    std::string_view bestName;
    for (std::string_view candidate : candidates) {
        const std::size_t d = editDistance(name, candidate);
        if (d < best) {
            best = d;
            bestName = candidate;
        }
    }
    if (best <= std::max<std::size_t>(2, name.size() / 2)) return bestName;
    return {};
}

/** --name value pairs. A trailing flag with no value is a usage error
 *  (exit 2), not a silent drop. */
class Flags {
  public:
    Flags(int argc, char** argv)
    {
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0) continue;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: flag %s expects a value\n",
                             argv[i]);
                std::exit(2);
            }
            const std::string name = argv[i] + 2;
            values_[name] = argv[++i];
        }
    }

    /** Strict numeric parse: the whole value must be a non-negative
     *  number. `--threads 4x` (trailing garbage), `--threads -1`
     *  (would wrap to 2^64-1 through stoull) and `--threads abc`
     *  (uncaught std::invalid_argument abort) are all usage errors. */
    std::uint64_t u64(const std::string& name, std::uint64_t fallback) const
    {
        auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        const std::string& text = it->second;
        std::size_t consumed = 0;
        std::uint64_t parsed = 0;
        try {
            parsed = std::stoull(text, &consumed);
        } catch (const std::exception&) {
            badValue(name, text);
        }
        if (consumed != text.size() || text.find('-') != std::string::npos) {
            badValue(name, text);
        }
        return parsed;
    }

    double f64(const std::string& name, double fallback) const
    {
        auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        const std::string& text = it->second;
        std::size_t consumed = 0;
        double parsed = 0.0;
        try {
            parsed = std::stod(text, &consumed);
        } catch (const std::exception&) {
            badValue(name, text);
        }
        if (consumed != text.size() || parsed < 0.0) badValue(name, text);
        return parsed;
    }

    std::string str(const std::string& name, const std::string& fallback) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? fallback : it->second;
    }

    bool has(const std::string& name) const { return values_.count(name) != 0; }

    /** Refuses (exit 2) any flag not in `known`, naming the closest
     *  known one: a typo'd `--tenant 3` must not run the default fleet. */
    void rejectUnknown(std::initializer_list<std::string_view> known) const
    {
        for (const auto& [name, value] : values_) {
            if (std::find(known.begin(), known.end(), name) != known.end()) {
                continue;
            }
            const std::string_view hint = closestName(name, known);
            std::fprintf(stderr, "error: unknown flag --%s", name.c_str());
            if (!hint.empty()) {
                std::fprintf(stderr, " (did you mean --%.*s?)",
                             int(hint.size()), hint.data());
            }
            std::fprintf(stderr, "\n");
            std::exit(2);
        }
    }

  private:
    [[noreturn]] static void badValue(const std::string& name,
                                      const std::string& text)
    {
        std::fprintf(stderr,
                     "error: flag --%s expects a non-negative number, "
                     "got \"%s\"\n",
                     name.c_str(), text.c_str());
        std::exit(2);
    }

    std::map<std::string, std::string> values_;
};

}  // namespace nesgx
