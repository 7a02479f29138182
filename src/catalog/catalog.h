/// \file catalog.h
/// \brief Relation metadata and the system catalog.

#ifndef DFDB_CATALOG_CATALOG_H_
#define DFDB_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"

namespace dfdb {

/// Identifies a base relation in the catalog and its backing heap file.
using RelationId = uint32_t;
constexpr RelationId kInvalidRelationId = 0;

/// \brief Descriptor of one base relation.
struct RelationMeta {
  RelationId id = kInvalidRelationId;
  std::string name;
  Schema schema;

  /// Optimizer-visible statistics, refreshed on load/append.
  uint64_t tuple_count = 0;
  uint64_t page_count = 0;

  int64_t size_bytes() const {
    return static_cast<int64_t>(tuple_count) * schema.tuple_width();
  }
};

/// \brief Descriptor of one secondary index (a CREATE INDEX catalog entry).
///
/// The catalog records only the definition — which relation, which key
/// columns. The built grid-file structures live in the index subsystem
/// (index/index_manager.h) and are (re)built lazily per snapshot version.
struct IndexMeta {
  std::string name;
  std::string relation;
  /// 1–2 numeric key columns, validated against the relation schema at
  /// CreateIndex time (grid files over CHAR keys are not supported).
  std::vector<std::string> columns;
};

/// \brief Thread-safe name -> RelationMeta registry.
///
/// The catalog owns only metadata; tuple storage lives in the StorageEngine
/// keyed by RelationId.
class Catalog {
 public:
  Catalog() = default;
  DFDB_DISALLOW_COPY(Catalog);

  /// Registers a new relation; assigns and returns its id.
  StatusOr<RelationId> CreateRelation(std::string name, Schema schema);

  /// Removes a relation. NotFound if absent.
  Status DropRelation(std::string_view name);

  /// Metadata lookup by name or id (copies out, so callers hold no locks).
  StatusOr<RelationMeta> GetRelation(std::string_view name) const;
  StatusOr<RelationMeta> GetRelation(RelationId id) const;

  bool Exists(std::string_view name) const;

  /// Replaces the stored statistics for \p id.
  Status UpdateStats(RelationId id, uint64_t tuple_count, uint64_t page_count);

  /// Names of all relations, sorted.
  std::vector<std::string> ListRelations() const;

  /// Total bytes across all relations (the paper's "combined size of 5.5
  /// megabytes" is checked against this).
  int64_t TotalBytes() const;

  // --- Secondary indexes ---

  /// Registers a secondary index. Validates that the relation exists, the
  /// index name is new, and the 1–2 key columns are distinct numeric
  /// columns of the relation schema.
  Status CreateIndex(IndexMeta meta);

  /// Removes an index definition. NotFound if absent.
  Status DropIndex(std::string_view name);

  StatusOr<IndexMeta> GetIndex(std::string_view name) const;

  /// All index definitions over \p relation, ordered by index name.
  std::vector<IndexMeta> GetIndexesFor(std::string_view relation) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, RelationMeta, std::less<>> by_name_;
  std::map<RelationId, std::string> id_to_name_;
  std::map<std::string, IndexMeta, std::less<>> indexes_;
  RelationId next_id_ = 1;
};

}  // namespace dfdb

#endif  // DFDB_CATALOG_CATALOG_H_
