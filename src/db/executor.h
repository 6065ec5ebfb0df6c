/**
 * minidb execution engine: tables over B-trees, statement execution, and
 * a work counter the enclave wrapper converts into simulated cycles.
 */
#pragma once

#include <map>

#include "db/btree.h"
#include "db/parser.h"

namespace nesgx::db {

/** Execution result: status + selected rows (key first). */
struct QueryResult {
    bool ok = false;
    std::string error;
    std::vector<std::pair<Key, Row>> rows;
    std::uint64_t rowsAffected = 0;
};

class Database {
  public:
    /** Parses and executes one statement. */
    QueryResult execute(const std::string& sql);

    /** Executes a pre-parsed statement (hot path for YCSB loops). */
    QueryResult execute(const Statement& stmt);

    /** Total tree work performed so far (for cycle charging). */
    std::uint64_t workUnits() const;

    std::size_t tableSize(const std::string& name) const;

  private:
    struct Table {
        std::vector<std::string> columns;
        Btree tree;
    };

    std::map<std::string, Table> tables_;
};

}  // namespace nesgx::db
