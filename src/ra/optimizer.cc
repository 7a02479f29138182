#include "ra/optimizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/macros.h"
#include "common/string_util.h"
#include "ra/expr_compile.h"

namespace dfdb {

namespace {

/// Splits an AND tree into its conjuncts.
void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  const auto* logic = dynamic_cast<const LogicExpr*>(e.get());
  if (logic != nullptr && logic->op() == LogicOp::kAnd) {
    CollectConjuncts(logic->shared_lhs(), out);
    CollectConjuncts(logic->shared_rhs(), out);
    return;
  }
  out->push_back(e);
}

/// Rebuilds an AND of \p conjuncts (nullptr if empty).
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc == nullptr ? c : And(acc, c);
  }
  return acc;
}

/// Clones an expression tree (column refs reconstructed unbound).
ExprPtr CloneExpr(const Expr& e) {
  return e.TransformColumns([](const ColumnRefExpr& ref) {
    return std::make_shared<ColumnRefExpr>(ref.name(), ref.side());
  });
}

/// If \p name matches the benchmark convention "k<N>", returns N.
bool UniformDomain(const std::string& name, double* domain) {
  if (name.size() < 2 || name[0] != 'k') return false;
  double d = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    d = d * 10 + (name[i] - '0');
  }
  if (d <= 0) return false;
  *domain = d;
  return true;
}

}  // namespace

std::string OptimizerReport::ToString() const {
  return StrFormat(
      "merged=%d pushed=%d swapped=%d fused=%d materialized=%d "
      "scans(full=%d zonemap=%d gridfile=%d) pushdown=%d",
      restricts_merged, predicates_pushed, joins_swapped, edges_fused,
      edges_materialized, scans_full, scans_zonemap, scans_gridfile,
      scans_pushdown);
}

double Optimizer::EstimateSelectivity(const Expr& pred,
                                      const Schema& schema) const {
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&pred)) {
    // Column-vs-literal with a known uniform domain gets an exact estimate.
    const auto* col = dynamic_cast<const ColumnRefExpr*>(&cmp->lhs());
    const auto* lit = dynamic_cast<const LiteralExpr*>(&cmp->rhs());
    if (col == nullptr || lit == nullptr) {
      // Mirror literal-vs-column.
      col = dynamic_cast<const ColumnRefExpr*>(&cmp->rhs());
      lit = dynamic_cast<const LiteralExpr*>(&cmp->lhs());
    }
    double domain = 0;
    if (col != nullptr && lit != nullptr &&
        UniformDomain(col->name(), &domain) &&
        lit->value().type() != ColumnType::kChar) {
      const double v = lit->value().AsNumeric().value_or(0.0);
      const double frac = std::clamp(v / domain, 0.0, 1.0);
      switch (cmp->op()) {
        case CompareOp::kEq:
          return 1.0 / domain;
        case CompareOp::kNe:
          return 1.0 - 1.0 / domain;
        case CompareOp::kLt:
        case CompareOp::kLe:
          return frac;
        case CompareOp::kGt:
        case CompareOp::kGe:
          return 1.0 - frac;
      }
    }
    switch (cmp->op()) {
      case CompareOp::kEq:
        return 0.05;
      case CompareOp::kNe:
        return 0.95;
      default:
        return 1.0 / 3.0;
    }
  }
  if (const auto* logic = dynamic_cast<const LogicExpr*>(&pred)) {
    const double s1 = EstimateSelectivity(logic->lhs(), schema);
    switch (logic->op()) {
      case LogicOp::kNot:
        return 1.0 - s1;
      case LogicOp::kAnd: {
        const double s2 = EstimateSelectivity(*logic->rhs(), schema);
        return s1 * s2;
      }
      case LogicOp::kOr: {
        const double s2 = EstimateSelectivity(*logic->rhs(), schema);
        return s1 + s2 - s1 * s2;
      }
    }
  }
  return 0.5;
}

double Optimizer::EstimateRows(const PlanNode& node) const {
  switch (node.op) {
    case PlanOp::kScan: {
      auto meta = catalog_->GetRelation(node.relation);
      if (!meta.ok()) return 1000.0;
      return std::max<double>(1.0, static_cast<double>(meta->tuple_count));
    }
    case PlanOp::kRestrict: {
      const double child = EstimateRows(node.child(0));
      const double sel = node.predicate == nullptr
                             ? 0.5
                             : EstimateSelectivity(*node.predicate,
                                                   node.child(0).output_schema);
      return std::max(1.0, child * sel);
    }
    case PlanOp::kProject: {
      const double child = EstimateRows(node.child(0));
      return node.dedup ? std::max(1.0, child * 0.7) : child;
    }
    case PlanOp::kJoin: {
      const double l = EstimateRows(node.child(0));
      const double r = EstimateRows(node.child(1));
      double sel = 0.25;
      // Equi-join on a uniform-domain key: 1/domain.
      if (const auto* cmp =
              dynamic_cast<const CompareExpr*>(node.predicate.get())) {
        if (cmp->op() == CompareOp::kEq) {
          const auto* a = dynamic_cast<const ColumnRefExpr*>(&cmp->lhs());
          double domain = 0;
          if (a != nullptr && UniformDomain(a->name(), &domain)) {
            sel = 1.0 / domain;
          } else {
            sel = 0.01;
          }
        }
      }
      return std::max(1.0, l * r * sel);
    }
    case PlanOp::kUnion: {
      const double sum =
          EstimateRows(node.child(0)) + EstimateRows(node.child(1));
      return node.bag_semantics ? sum : std::max(1.0, sum * 0.8);
    }
    case PlanOp::kDifference:
      return std::max(1.0, EstimateRows(node.child(0)) * 0.5);
    case PlanOp::kAggregate: {
      const double child = EstimateRows(node.child(0));
      return node.columns.empty() ? 1.0 : std::max(1.0, child * 0.1);
    }
    case PlanOp::kAppend:
      return EstimateRows(node.child(0));
    case PlanOp::kDelete: {
      auto meta = catalog_->GetRelation(node.relation);
      return meta.ok() ? static_cast<double>(meta->tuple_count) : 1000.0;
    }
  }
  return 1000.0;
}

namespace {

/// One optimization pass over a resolved tree (recursive, bottom-up).
/// Rewrites in place; returns counters through \p report.
class Rewriter {
 public:
  Rewriter(const Optimizer* optimizer, OptimizerReport* report)
      : optimizer_(optimizer), report_(report) {}

  void Rewrite(PlanNodePtr* node) {
    for (auto& child : (*node)->children) {
      Rewrite(&child);
    }
    MergeRestricts(node);
    PushThroughUnion(node);
    PushThroughProject(node);
    PushIntoJoin(node);
    ReorderJoin(node);
  }

 private:
  /// restrict(restrict(x, p), q) => restrict(x, q AND p).
  void MergeRestricts(PlanNodePtr* node) {
    PlanNode& n = **node;
    if (n.op != PlanOp::kRestrict || n.child(0).op != PlanOp::kRestrict) {
      return;
    }
    PlanNodePtr inner = std::move(n.children[0]);
    n.predicate = And(n.predicate, inner->predicate);
    n.children[0] = std::move(inner->children[0]);
    report_->restricts_merged++;
  }

  /// restrict(union(a, b), p) => union(restrict(a, p), restrict(b, p)).
  void PushThroughUnion(PlanNodePtr* node) {
    PlanNode& n = **node;
    if (n.op != PlanOp::kRestrict || n.child(0).op != PlanOp::kUnion) return;
    PlanNodePtr u = std::move(n.children[0]);
    ExprPtr pred = n.predicate;
    u->children[0] =
        MakeRestrict(std::move(u->children[0]), CloneExpr(*pred));
    u->children[1] =
        MakeRestrict(std::move(u->children[1]), CloneExpr(*pred));
    report_->predicates_pushed += 2;
    *node = std::move(u);
  }

  /// restrict(project(x, cols), p) => project(restrict(x, p'), cols) where
  /// p' renames output columns back to the input names. Only when every
  /// projected column name maps uniquely (no dedup-breaking: restrict
  /// commutes with dedup-project).
  void PushThroughProject(PlanNodePtr* node) {
    PlanNode& n = **node;
    if (n.op != PlanOp::kRestrict || n.child(0).op != PlanOp::kProject) return;
    PlanNode& proj = n.child(0);
    // Output name -> input name mapping.
    const Schema& out = proj.output_schema;
    if (out.num_columns() != static_cast<int>(proj.columns.size())) return;
    std::map<std::string, std::string> rename;
    for (int i = 0; i < out.num_columns(); ++i) {
      rename[out.column(i).name] = proj.columns[static_cast<size_t>(i)];
    }
    ExprPtr renamed = n.predicate->TransformColumns(
        [&rename](const ColumnRefExpr& ref) -> ExprPtr {
          auto it = rename.find(ref.name());
          return std::make_shared<ColumnRefExpr>(
              it != rename.end() ? it->second : ref.name(), ref.side());
        });
    PlanNodePtr p = std::move(n.children[0]);
    p->children[0] = MakeRestrict(std::move(p->children[0]), renamed);
    report_->predicates_pushed++;
    *node = std::move(p);
  }

  /// restrict(join(a, b), p): each conjunct of p whose columns all come
  /// from one input moves onto that input, renamed to the input's own
  /// column names. The join's output is join_left() ++ join_right(), so a
  /// column's position there names its input and its name in that input
  /// (the left input keeps its names, the right's duplicates carry "_r").
  void PushIntoJoin(PlanNodePtr* node) {
    PlanNode& n = **node;
    if (n.op != PlanOp::kRestrict || n.child(0).op != PlanOp::kJoin) return;
    PlanNode& join = n.child(0);
    const PlanNode& left = join.join_left();
    const PlanNode& right = join.join_right();
    const Schema& out = join.output_schema;
    const int left_width = left.output_schema.num_columns();
    if (!join.resolved || !left.resolved || !right.resolved ||
        out.num_columns() != left_width + right.output_schema.num_columns()) {
      return;
    }
    // The input an output column comes from, and its name there.
    struct Source {
      const PlanNode* input;
      const std::string* name;
    };
    auto source_of = [&](const ColumnRefExpr& ref) -> std::optional<Source> {
      auto pos = out.ColumnIndex(ref.name());
      if (!pos.ok()) return std::nullopt;
      if (*pos < left_width) {
        return Source{&left, &left.output_schema.column(*pos).name};
      }
      return Source{&right,
                    &right.output_schema.column(*pos - left_width).name};
    };

    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(n.predicate, &conjuncts);
    std::vector<ExprPtr> pushed[2], kept;  // pushed[i] goes onto child(i).
    for (ExprPtr& c : conjuncts) {
      std::vector<const ColumnRefExpr*> refs;
      c->CollectColumnRefs(&refs);
      // A conjunct without columns goes to the outer.
      const PlanNode* target = &join.child(0);
      bool one_input = true;
      for (size_t i = 0; i < refs.size() && one_input; ++i) {
        const std::optional<Source> src = source_of(*refs[i]);
        one_input = src.has_value() && (i == 0 || src->input == target);
        if (one_input) target = src->input;
      }
      if (!one_input) {
        kept.push_back(c);
        continue;
      }
      pushed[target == &join.child(0) ? 0 : 1].push_back(
          c->TransformColumns([&](const ColumnRefExpr& ref) -> ExprPtr {
            return std::make_shared<ColumnRefExpr>(*source_of(ref)->name,
                                                   ref.side());
          }));
    }
    if (pushed[0].empty() && pushed[1].empty()) return;
    for (int i = 0; i < 2; ++i) {
      if (pushed[i].empty()) continue;
      PlanNodePtr& child = join.children[static_cast<size_t>(i)];
      child = MakeRestrict(std::move(child), AndAll(pushed[i]));
      report_->predicates_pushed += static_cast<int>(pushed[i].size());
    }
    if (kept.empty()) {
      // The whole restrict moved; splice it out.
      *node = std::move(n.children[0]);
    } else {
      n.predicate = AndAll(kept);
    }
  }

  /// join(small, big) => join(big, small) marked join_swapped: more outer
  /// pages means more parallelism across IPs, and a smaller inner relation
  /// means less broadcast traffic and shorter IRC vectors. The swapped
  /// join writes each output tuple as inner ++ outer, so its schema and
  /// bytes stay those of the join it replaced; swapping it back clears the
  /// mark.
  void ReorderJoin(PlanNodePtr* node) {
    PlanNode& n = **node;
    if (n.op != PlanOp::kJoin || !n.resolved) return;
    const double left = optimizer_->EstimateRows(n.child(0));
    const double right = optimizer_->EstimateRows(n.child(1));
    if (left >= right) return;
    std::swap(n.children[0], n.children[1]);
    n.predicate = SwapSides(*n.predicate);
    n.join_swapped = !n.join_swapped;
    report_->joins_swapped++;
  }

  const Optimizer* optimizer_;
  OptimizerReport* report_;
};

/// Why an edge cannot fuse (safety conditions only; stats come later).
enum class FuseVeto {
  kNone,
  kUnsupportedProducer,
  kUnsupportedConsumer,
  kPredicateNotCompiled,
};

/// The safety half of the per-edge decision: whenever the edge cannot be
/// *proven* safe to stream, it materializes. The consumer runs its own
/// program on each page handed to it, so only the producer's predicate
/// must compile (the simulator folds a compilable restrict alone).
FuseVeto ClassifyEdgeSafety(const PlanNode& producer,
                            const PlanNode& consumer) {
  if (!producer.resolved || producer.num_children() < 1) {
    return FuseVeto::kUnsupportedProducer;
  }
  switch (producer.op) {
    case PlanOp::kRestrict:
      if (producer.predicate == nullptr ||
          !CompiledPredicate::Compile(*producer.predicate,
                                      producer.child(0).output_schema)
               .ok()) {
        return FuseVeto::kPredicateNotCompiled;
      }
      break;
    case PlanOp::kProject:
      // Duplicate elimination needs the whole input before any output row
      // is final — not streamable.
      if (producer.dedup) return FuseVeto::kUnsupportedProducer;
      break;
    default:
      return FuseVeto::kUnsupportedProducer;
  }
  switch (consumer.op) {
    case PlanOp::kJoin:
    case PlanOp::kRestrict:
      return FuseVeto::kNone;
    case PlanOp::kProject:
      return consumer.dedup ? FuseVeto::kUnsupportedConsumer
                            : FuseVeto::kNone;
    default:
      return FuseVeto::kUnsupportedConsumer;
  }
}

}  // namespace

bool PipelineEdgeSafe(const PlanNode& producer, const PlanNode& consumer) {
  return ClassifyEdgeSafety(producer, consumer) == FuseVeto::kNone;
}

void Optimizer::DecidePipelining(PlanNode* root,
                                 OptimizerReport* report) const {
  for (auto& child : root->children) {
    DecidePipelining(child.get(), report);
    PlanNode& producer = *child;
    // Scan edges are storage reads: the staging path already streams them,
    // so they are not materialize-vs-pipeline decisions.
    if (producer.op == PlanOp::kScan) continue;
    producer.pipeline_fused = false;
    switch (ClassifyEdgeSafety(producer, *root)) {
      case FuseVeto::kUnsupportedProducer:
        report->fallback_unsupported_producer++;
        report->edges_materialized++;
        continue;
      case FuseVeto::kUnsupportedConsumer:
        report->fallback_unsupported_consumer++;
        report->edges_materialized++;
        continue;
      case FuseVeto::kPredicateNotCompiled:
        report->fallback_predicate_not_compiled++;
        report->edges_materialized++;
        continue;
      case FuseVeto::kNone:
        break;
    }
    // Stats veto: an edge into a join that multiplies each streamed row
    // beyond the fanout limit materializes, so the buffer hierarchy (not a
    // live pipeline) absorbs the expansion.
    if (root->op == PlanOp::kJoin) {
      const double in = std::max(1.0, EstimateRows(producer));
      const double out = EstimateRows(*root);
      if (out / in > kPipelineFanoutLimit) {
        report->fallback_high_fanout++;
        report->edges_materialized++;
        continue;
      }
    }
    producer.pipeline_fused = true;
    report->edges_fused++;
  }
}

void Optimizer::DecideAccessPaths(PlanNode* root,
                                  OptimizerReport* report) const {
  for (auto& child : root->children) DecideAccessPaths(child.get(), report);

  // Count bare scans (joins, projects, appends reading whole relations) as
  // full scans; only the restrict-over-scan shape below upgrades.
  if (root->op == PlanOp::kScan) {
    root->access_path = ScanAccessPath::kFullScan;
    root->prune_bounds.clear();
    root->index_name.clear();
    report->scans_full++;
    return;
  }
  if (root->op != PlanOp::kRestrict || root->predicate == nullptr ||
      root->num_children() != 1 || root->child(0).op != PlanOp::kScan ||
      !root->child(0).resolved) {
    return;
  }
  PlanNode& scan = root->child(0);
  auto compiled = CompiledPredicate::Compile(*root->predicate,
                                             scan.output_schema);
  if (!compiled.ok() || compiled->col_compares().empty()) {
    return;  // Generic predicate: no extractable bounds, stays full scan.
  }
  // The compiled conjuncts are exactly the bounds pruning tests pages
  // against — already offset/type-resolved against the scan schema.
  scan.prune_bounds = compiled->col_compares();
  scan.access_path = ScanAccessPath::kZoneMap;
  report->scans_full--;

  // Grid-file upgrade: a catalog index over one of the bound columns, and
  // a selective enough predicate that probing beats scanning the scale.
  for (const IndexMeta& index : catalog_->GetIndexesFor(scan.relation)) {
    bool covers = false;
    for (const std::string& col : index.columns) {
      auto idx = scan.output_schema.ColumnIndex(col);
      if (!idx.ok()) continue;
      const int32_t offset = scan.output_schema.offset(*idx);
      for (const ColCompare& c : scan.prune_bounds) {
        if (c.offset == offset && c.op != CompareOp::kNe &&
            c.kind != ColCompare::Kind::kStr) {
          covers = true;
          break;
        }
      }
      if (covers) break;
    }
    if (!covers) continue;
    if (EstimateSelectivity(*root->predicate, scan.output_schema) >
        kGridFileSelectivity) {
      continue;
    }
    scan.access_path = ScanAccessPath::kGridFile;
    scan.index_name = index.name;
    break;
  }
  if (scan.access_path == ScanAccessPath::kGridFile) {
    report->scans_gridfile++;
  } else {
    report->scans_zonemap++;
  }
}

void Optimizer::DecidePushdown(PlanNode* root, OptimizerReport* report) const {
  for (auto& child : root->children) DecidePushdown(child.get(), report);

  if (root->op == PlanOp::kScan) {
    root->pushdown = false;  // Bare scans ship raw pages; nothing to filter.
    return;
  }
  if (root->op != PlanOp::kRestrict || root->predicate == nullptr ||
      root->num_children() != 1 || root->child(0).op != PlanOp::kScan ||
      !root->child(0).resolved) {
    return;
  }
  PlanNode& scan = root->child(0);
  auto compiled = CompiledPredicate::Compile(*root->predicate,
                                             scan.output_schema);
  if (!compiled.ok()) {
    report->pushdown_rejected++;
    return;  // Interpreted predicates stay at the processors.
  }
  // Device breakeven: the in-cache scan runs at filter_rate, survivors ship
  // at port_rate; the raw path ships everything at port_rate. With the
  // default 4x internal rate the filter wins below 75% survival.
  if (EstimateSelectivity(*root->predicate, scan.output_schema) >
      kPushdownSelectivity) {
    report->pushdown_rejected++;
    return;
  }
  scan.pushdown = true;
  report->scans_pushdown++;
}

StatusOr<PlanNodePtr> Optimizer::Optimize(const PlanNode& plan,
                                          OptimizerReport* report) const {
  Analyzer analyzer(catalog_);
  PlanNodePtr original = plan.Clone();
  DFDB_RETURN_IF_ERROR(analyzer.Resolve(original.get()).status());

  PlanNodePtr optimized = original->Clone();
  DFDB_RETURN_IF_ERROR(analyzer.Resolve(optimized.get()).status());
  OptimizerReport local;
  Rewriter rewriter(this, &local);
  // Run to a fixpoint (pushes can expose further merges), bounded for
  // safety.
  for (int pass = 0; pass < 5; ++pass) {
    const int before = local.restricts_merged + local.predicates_pushed +
                       local.joins_swapped;
    rewriter.Rewrite(&optimized);
    // Rules need resolved schemas; rebind between passes.
    auto mid = analyzer.Resolve(optimized.get());
    if (!mid.ok()) break;
    const int after = local.restricts_merged + local.predicates_pushed +
                      local.joins_swapped;
    if (after == before) break;
  }

  // Safety: a rewrite must re-resolve; if not, keep the original.
  auto reresolved = analyzer.Resolve(optimized.get());
  if (!reresolved.ok()) {
    OptimizerReport fallback;  // Zero rewrites, but edges still decided.
    DecidePipelining(original.get(), &fallback);
    DecideAccessPaths(original.get(), &fallback);
    DecidePushdown(original.get(), &fallback);
    if (report != nullptr) *report = fallback;
    return original;
  }
  DecidePipelining(optimized.get(), &local);
  DecideAccessPaths(optimized.get(), &local);
  DecidePushdown(optimized.get(), &local);
  if (report != nullptr) *report = local;
  return optimized;
}

std::vector<EquiJoinKey> ExtractEquiJoinKeys(const PlanNode& join) {
  std::vector<EquiJoinKey> keys;
  if (join.op != PlanOp::kJoin || join.predicate == nullptr ||
      join.num_children() != 2 || !join.child(0).resolved ||
      !join.child(1).resolved) {
    return keys;
  }
  const Schema& left = join.join_left().output_schema;
  const Schema& right = join.join_right().output_schema;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(join.join_predicate(), &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != Expr::Kind::kCompare) continue;
    const auto& cmp = static_cast<const CompareExpr&>(*c);
    if (cmp.op() != CompareOp::kEq) continue;
    if (cmp.lhs().kind() != Expr::Kind::kColumnRef ||
        cmp.rhs().kind() != Expr::Kind::kColumnRef) {
      continue;
    }
    const auto* a = static_cast<const ColumnRefExpr*>(&cmp.lhs());
    const auto* b = static_cast<const ColumnRefExpr*>(&cmp.rhs());
    if (a->side() == Side::kRight && b->side() == Side::kLeft) std::swap(a, b);
    if (a->side() != Side::kLeft || b->side() != Side::kRight) continue;
    auto li = left.ColumnIndex(a->name());
    auto ri = right.ColumnIndex(b->name());
    if (!li.ok() || !ri.ok()) continue;
    const Column& lc = left.column(*li);
    const Column& rc = right.column(*ri);
    if (lc.type != rc.type || lc.type == ColumnType::kDouble) continue;
    keys.push_back(EquiJoinKey{a->name(), b->name()});
  }
  return keys;
}

}  // namespace dfdb
