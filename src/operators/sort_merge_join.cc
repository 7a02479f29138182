#include "operators/sort_merge_join.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/tuple.h"

namespace dfdb {

namespace {

/// Reference to one tuple inside a page list.
struct TupleRef {
  const Page* page;
  int index;
  Slice tuple() const { return page->tuple(index); }
};

/// Collects refs to every tuple.
std::vector<TupleRef> CollectRefs(const std::vector<PagePtr>& pages) {
  std::vector<TupleRef> refs;
  for (const PagePtr& p : pages) {
    for (int i = 0; i < p->num_tuples(); ++i) {
      refs.push_back(TupleRef{p.get(), i});
    }
  }
  return refs;
}

/// Comparator on a single column of a schema. Requires both sides share the
/// schema; returns a strict weak order.
class ColumnLess {
 public:
  ColumnLess(const Schema* schema, int col) : schema_(schema), col_(col) {}
  bool operator()(const TupleRef& a, const TupleRef& b) const {
    TupleView va(schema_, a.tuple());
    TupleView vb(schema_, b.tuple());
    auto c = va.CompareColumn(col_, vb, col_);
    return c.ok() && *c < 0;
  }

 private:
  const Schema* schema_;
  int col_;
};

}  // namespace

Status SortMergeJoin(const Schema& outer_schema,
                     const std::vector<PagePtr>& outer_pages, int outer_col,
                     const Schema& inner_schema,
                     const std::vector<PagePtr>& inner_pages, int inner_col,
                     PageSink* out, JoinEmit emit) {
  if (outer_col < 0 || outer_col >= outer_schema.num_columns() ||
      inner_col < 0 || inner_col >= inner_schema.num_columns()) {
    return Status::OutOfRange("join column index out of range");
  }
  if (outer_schema.column(outer_col).type != inner_schema.column(inner_col).type) {
    return Status::InvalidArgument("join columns have different types");
  }

  std::vector<TupleRef> outer = CollectRefs(outer_pages);
  std::vector<TupleRef> inner = CollectRefs(inner_pages);
  std::sort(outer.begin(), outer.end(), ColumnLess(&outer_schema, outer_col));
  std::sort(inner.begin(), inner.end(), ColumnLess(&inner_schema, inner_col));

  size_t i = 0, j = 0;
  while (i < outer.size() && j < inner.size()) {
    TupleView vo(&outer_schema, outer[i].tuple());
    TupleView vi(&inner_schema, inner[j].tuple());
    DFDB_ASSIGN_OR_RETURN(int c, vo.CompareColumn(outer_col, vi, inner_col));
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Find the extent of the equal-key block on each side.
      size_t i_end = i + 1;
      while (i_end < outer.size()) {
        TupleView v(&outer_schema, outer[i_end].tuple());
        DFDB_ASSIGN_OR_RETURN(int cc, v.CompareColumn(outer_col, vo, outer_col));
        if (cc != 0) break;
        ++i_end;
      }
      size_t j_end = j + 1;
      while (j_end < inner.size()) {
        TupleView v(&inner_schema, inner[j_end].tuple());
        DFDB_ASSIGN_OR_RETURN(int cc, v.CompareColumn(inner_col, vi, inner_col));
        if (cc != 0) break;
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          DFDB_RETURN_IF_ERROR(
              EmitJoined(out, emit, outer[a].tuple(), inner[b].tuple()));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return Status::OK();
}

}  // namespace dfdb
