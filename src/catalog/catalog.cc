#include "catalog/catalog.h"

#include "common/string_util.h"

namespace dfdb {

StatusOr<RelationId> Catalog::CreateRelation(std::string name, Schema schema) {
  if (name.empty()) return Status::InvalidArgument("relation name is empty");
  std::lock_guard<std::mutex> lock(mu_);
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  RelationMeta meta;
  meta.id = next_id_++;
  meta.name = name;
  meta.schema = std::move(schema);
  id_to_name_[meta.id] = name;
  const RelationId id = meta.id;
  by_name_.emplace(std::move(name), std::move(meta));
  return id;
}

Status Catalog::DropRelation(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  id_to_name_.erase(it->second.id);
  by_name_.erase(it);
  // Index definitions die with their relation.
  for (auto ix = indexes_.begin(); ix != indexes_.end();) {
    if (ix->second.relation == name) {
      ix = indexes_.erase(ix);
    } else {
      ++ix;
    }
  }
  return Status::OK();
}

StatusOr<RelationMeta> Catalog::GetRelation(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return it->second;
}

StatusOr<RelationMeta> Catalog::GetRelation(RelationId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = id_to_name_.find(id);
  if (it == id_to_name_.end()) {
    return Status::NotFound(StrFormat("no relation with id %u", id));
  }
  return by_name_.find(it->second)->second;
}

bool Catalog::Exists(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.count(name) > 0;
}

Status Catalog::UpdateStats(RelationId id, uint64_t tuple_count,
                            uint64_t page_count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = id_to_name_.find(id);
  if (it == id_to_name_.end()) {
    return Status::NotFound(StrFormat("no relation with id %u", id));
  }
  RelationMeta& meta = by_name_.find(it->second)->second;
  meta.tuple_count = tuple_count;
  meta.page_count = page_count;
  return Status::OK();
}

std::vector<std::string> Catalog::ListRelations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, meta] : by_name_) names.push_back(name);
  return names;
}

int64_t Catalog::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, meta] : by_name_) total += meta.size_bytes();
  return total;
}

Status Catalog::CreateIndex(IndexMeta meta) {
  if (meta.name.empty()) return Status::InvalidArgument("index name is empty");
  if (meta.columns.empty() || meta.columns.size() > 2) {
    return Status::InvalidArgument(
        "an index needs 1 or 2 key columns, got " +
        std::to_string(meta.columns.size()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (indexes_.count(meta.name) > 0) {
    return Status::AlreadyExists("index already exists: " + meta.name);
  }
  auto rel = by_name_.find(meta.relation);
  if (rel == by_name_.end()) {
    return Status::NotFound("no relation named " + meta.relation);
  }
  const Schema& schema = rel->second.schema;
  for (size_t i = 0; i < meta.columns.size(); ++i) {
    auto col = schema.ColumnIndex(meta.columns[i]);
    if (!col.ok()) return col.status();
    if (schema.column(*col).type == ColumnType::kChar) {
      return Status::InvalidArgument("index key column must be numeric: " +
                                     meta.columns[i]);
    }
    for (size_t j = 0; j < i; ++j) {
      if (meta.columns[j] == meta.columns[i]) {
        return Status::InvalidArgument("duplicate index key column: " +
                                       meta.columns[i]);
      }
    }
  }
  std::string name = meta.name;
  indexes_.emplace(std::move(name), std::move(meta));
  return Status::OK();
}

Status Catalog::DropIndex(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named " + std::string(name));
  }
  indexes_.erase(it);
  return Status::OK();
}

StatusOr<IndexMeta> Catalog::GetIndex(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named " + std::string(name));
  }
  return it->second;
}

std::vector<IndexMeta> Catalog::GetIndexesFor(std::string_view relation) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IndexMeta> out;
  for (const auto& [name, meta] : indexes_) {
    if (meta.relation == relation) out.push_back(meta);
  }
  return out;
}

}  // namespace dfdb
