#include "catalog/schema.h"

#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"

namespace dfdb {

namespace {

/// True when one of the first \p n columns is named \p name. Schemas hold
/// a few dozen columns at most, so a linear scan beats building a set.
bool NameTaken(const std::vector<Column>& columns, size_t n,
               std::string_view name) {
  for (size_t i = 0; i < n; ++i) {
    if (columns[i].name == name) return true;
  }
  return false;
}

}  // namespace

StatusOr<Schema> Schema::Create(std::vector<Column> columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& c = columns[i];
    if (c.name.empty()) {
      return Status::InvalidArgument("column name must be non-empty");
    }
    if (NameTaken(columns, i, c.name)) {
      return Status::InvalidArgument("duplicate column name: " + c.name);
    }
    if (c.type == ColumnType::kChar) {
      if (c.width <= 0) {
        return Status::InvalidArgument(
            StrFormat("CHAR column %s must have positive width", c.name.c_str()));
      }
    } else if (c.width != FixedTypeWidth(c.type)) {
      return Status::InvalidArgument(
          StrFormat("column %s: width %d does not match type %s", c.name.c_str(),
                    c.width, std::string(ColumnTypeToString(c.type)).c_str()));
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument("schema must have at least one column");
  }
  return Schema(std::move(columns));
}

Schema Schema::CreateOrDie(std::vector<Column> columns) {
  auto schema = Create(std::move(columns));
  DFDB_CHECK(schema.ok()) << schema.status();
  return *std::move(schema);
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  offsets_.reserve(columns_.size());
  int off = 0;
  for (const Column& c : columns_) {
    offsets_.push_back(off);
    off += c.width;
  }
  tuple_width_ = off;
}

StatusOr<int> Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound(StrFormat("no column named %.*s",
                                    static_cast<int>(name.size()), name.data()));
}

StatusOr<Schema> Schema::Project(const std::vector<int>& indices) const {
  if (indices.empty()) {
    return Status::InvalidArgument("schema must have at least one column");
  }
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (int i : indices) {
    if (i < 0 || i >= num_columns()) {
      return Status::OutOfRange(StrFormat("column index %d out of range", i));
    }
    Column c = columns_[static_cast<size_t>(i)];
    // Disambiguate duplicates so the result is a valid schema.
    while (NameTaken(cols, cols.size(), c.name)) c.name += "_dup";
    cols.push_back(std::move(c));
  }
  // Names are unique by construction and widths come from this schema.
  return Schema(std::move(cols));
}

Schema Schema::Concat(const Schema& other, std::string_view suffix) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size() + other.columns_.size());
  cols.insert(cols.end(), columns_.begin(), columns_.end());
  for (const Column& c : other.columns_) {
    Column copy = c;
    while (NameTaken(cols, cols.size(), copy.name)) copy.name += suffix;
    cols.push_back(std::move(copy));
  }
  // Both inputs are valid schemas and the loop keeps names unique.
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(StrFormat("%s:%s(%d)", c.name.c_str(),
                              std::string(ColumnTypeToString(c.type)).c_str(),
                              c.width));
  }
  return JoinStrings(parts, ", ");
}

}  // namespace dfdb
