#include "engine/reference.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "operators/aggregator.h"
#include "operators/dedup.h"
#include "operators/kernels.h"
#include "operators/set_ops.h"
#include "operators/sort_merge_join.h"
#include "ra/analyzer.h"
#include "storage/page_sink.h"

namespace dfdb {

namespace {

/// A fully materialized intermediate relation.
struct Materialized {
  Schema schema;
  std::vector<PagePtr> pages;
};

/// Detects `left.col = right.col` predicates eligible for sort-merge.
bool ExtractEquiJoinColumns(const Expr& pred, int* outer_col, int* inner_col) {
  const auto* cmp = dynamic_cast<const CompareExpr*>(&pred);
  if (cmp == nullptr || cmp->op() != CompareOp::kEq) return false;
  const auto* l = dynamic_cast<const ColumnRefExpr*>(&cmp->lhs());
  const auto* r = dynamic_cast<const ColumnRefExpr*>(&cmp->rhs());
  if (l == nullptr || r == nullptr) return false;
  if (l->side() == Side::kLeft && r->side() == Side::kRight) {
    *outer_col = l->index();
    *inner_col = r->index();
    return true;
  }
  if (l->side() == Side::kRight && r->side() == Side::kLeft) {
    *outer_col = r->index();
    *inner_col = l->index();
    return true;
  }
  return false;
}

class Evaluator {
 public:
  Evaluator(StorageEngine* storage, bool use_sort_merge)
      : storage_(storage), use_sort_merge_(use_sort_merge) {}

  StatusOr<Materialized> Eval(const PlanNode& n) {
    Materialized out;
    out.schema = n.output_schema;
    PagePacker sink(RelationId{0}, std::max(1, n.output_schema.tuple_width()),
                    storage_->default_page_bytes(),
                    [&out](PagePtr page) {
                      out.pages.push_back(std::move(page));
                    },
                    storage_->frame_pool());

    switch (n.op) {
      case PlanOp::kScan: {
        DFDB_ASSIGN_OR_RETURN(HeapFile * file,
                              storage_->GetHeapFile(n.relation));
        DFDB_RETURN_IF_ERROR(file->Flush());
        for (PageId id : file->PageIds()) {
          DFDB_ASSIGN_OR_RETURN(PagePtr page, storage_->page_store().Get(id));
          out.pages.push_back(std::move(page));
        }
        return out;
      }
      case PlanOp::kRestrict: {
        DFDB_ASSIGN_OR_RETURN(Materialized in, Eval(n.child(0)));
        for (const PagePtr& page : in.pages) {
          DFDB_RETURN_IF_ERROR(
              RestrictPage(in.schema, *n.predicate, *page, &sink));
        }
        break;
      }
      case PlanOp::kProject: {
        DFDB_ASSIGN_OR_RETURN(Materialized in, Eval(n.child(0)));
        std::vector<int> indices;
        for (const std::string& name : n.columns) {
          DFDB_ASSIGN_OR_RETURN(int idx, in.schema.ColumnIndex(name));
          indices.push_back(idx);
        }
        DuplicateEliminator seen;
        for (const PagePtr& page : in.pages) {
          for (int i = 0; i < page->num_tuples(); ++i) {
            const std::string projected =
                ProjectTuple(in.schema, page->tuple(i), indices);
            if (!n.dedup || seen.Insert(Slice(projected))) {
              DFDB_RETURN_IF_ERROR(sink.Emit(Slice(projected)));
            }
          }
        }
        break;
      }
      case PlanOp::kJoin: {
        DFDB_ASSIGN_OR_RETURN(Materialized outer, Eval(n.child(0)));
        DFDB_ASSIGN_OR_RETURN(Materialized inner, Eval(n.child(1)));
        int oc = -1, ic = -1;
        if (use_sort_merge_ &&
            ExtractEquiJoinColumns(*n.predicate, &oc, &ic)) {
          DFDB_RETURN_IF_ERROR(SortMergeJoin(outer.schema, outer.pages, oc,
                                             inner.schema, inner.pages, ic,
                                             &sink));
        } else {
          for (const PagePtr& op : outer.pages) {
            for (const PagePtr& ip : inner.pages) {
              DFDB_RETURN_IF_ERROR(JoinPages(outer.schema, inner.schema,
                                             *n.predicate, *op, *ip, &sink));
            }
          }
        }
        break;
      }
      case PlanOp::kUnion: {
        DFDB_ASSIGN_OR_RETURN(Materialized left, Eval(n.child(0)));
        DFDB_ASSIGN_OR_RETURN(Materialized right, Eval(n.child(1)));
        UnionOp op(n.bag_semantics);
        for (const PagePtr& page : left.pages) {
          DFDB_RETURN_IF_ERROR(op.Consume(*page, &sink));
        }
        for (const PagePtr& page : right.pages) {
          DFDB_RETURN_IF_ERROR(op.Consume(*page, &sink));
        }
        break;
      }
      case PlanOp::kDifference: {
        DFDB_ASSIGN_OR_RETURN(Materialized left, Eval(n.child(0)));
        DFDB_ASSIGN_OR_RETURN(Materialized right, Eval(n.child(1)));
        DifferenceOp op;
        for (const PagePtr& page : right.pages) op.ConsumeRight(*page);
        for (const PagePtr& page : left.pages) {
          DFDB_RETURN_IF_ERROR(op.ConsumeLeft(*page, &sink));
        }
        break;
      }
      case PlanOp::kAggregate: {
        DFDB_ASSIGN_OR_RETURN(Materialized in, Eval(n.child(0)));
        DFDB_ASSIGN_OR_RETURN(
            Aggregator agg, Aggregator::Create(in.schema, n.output_schema,
                                               n.columns, n.aggregates));
        for (const PagePtr& page : in.pages) {
          DFDB_RETURN_IF_ERROR(agg.Consume(*page));
        }
        DFDB_RETURN_IF_ERROR(agg.Finish(&sink));
        break;
      }
      case PlanOp::kAppend: {
        DFDB_ASSIGN_OR_RETURN(Materialized in, Eval(n.child(0)));
        DFDB_ASSIGN_OR_RETURN(HeapFile * file,
                              storage_->GetHeapFile(n.relation));
        for (const PagePtr& page : in.pages) {
          DFDB_RETURN_IF_ERROR(file->AppendPage(*page));
        }
        DFDB_ASSIGN_OR_RETURN(RelationMeta meta,
                              storage_->catalog().GetRelation(n.relation));
        DFDB_RETURN_IF_ERROR(storage_->SyncStats(meta.id));
        return out;  // Appends produce no stream.
      }
      case PlanOp::kDelete: {
        DFDB_ASSIGN_OR_RETURN(HeapFile * file,
                              storage_->GetHeapFile(n.relation));
        const Expr* pred = n.predicate.get();
        Status pred_error = Status::OK();
        auto matcher = [&](const TupleView& t) {
          auto r = pred->EvalBool(t, nullptr);
          if (!r.ok()) {
            if (pred_error.ok()) pred_error = r.status();
            return false;
          }
          return *r;
        };
        DFDB_ASSIGN_OR_RETURN(uint64_t removed, file->DeleteWhere(matcher));
        (void)removed;
        DFDB_RETURN_IF_ERROR(pred_error);
        DFDB_ASSIGN_OR_RETURN(RelationMeta meta,
                              storage_->catalog().GetRelation(n.relation));
        DFDB_RETURN_IF_ERROR(storage_->SyncStats(meta.id));
        return out;
      }
    }
    DFDB_RETURN_IF_ERROR(sink.Close());
    return out;
  }

 private:
  StorageEngine* storage_;
  bool use_sort_merge_;
};

}  // namespace

StatusOr<QueryResult> ReferenceExecutor::Execute(const PlanNode& plan,
                                                 bool use_sort_merge) {
  std::unique_ptr<PlanNode> owned = plan.Clone();
  Analyzer analyzer(&storage_->catalog());
  DFDB_ASSIGN_OR_RETURN(QueryAnalysis analysis, analyzer.Resolve(owned.get()));
  (void)analysis;
  Evaluator eval(storage_, use_sort_merge);
  DFDB_ASSIGN_OR_RETURN(Materialized m, eval.Eval(*owned));
  QueryResult result(m.schema);
  for (PagePtr& page : m.pages) result.AddPage(std::move(page));
  return result;
}

}  // namespace dfdb
