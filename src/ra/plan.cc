#include "ra/plan.h"

#include "common/string_util.h"

namespace dfdb {

std::string_view PlanOpToString(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "Scan";
    case PlanOp::kRestrict:
      return "Restrict";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kJoin:
      return "Join";
    case PlanOp::kUnion:
      return "Union";
    case PlanOp::kDifference:
      return "Difference";
    case PlanOp::kAggregate:
      return "Aggregate";
    case PlanOp::kAppend:
      return "Append";
    case PlanOp::kDelete:
      return "Delete";
  }
  return "?";
}

std::string_view ScanAccessPathToString(ScanAccessPath p) {
  switch (p) {
    case ScanAccessPath::kFullScan:
      return "full_scan";
    case ScanAccessPath::kZoneMap:
      return "zone_map";
    case ScanAccessPath::kGridFile:
      return "grid_file";
  }
  return "?";
}

std::string_view AggregateFuncToString(AggregateSpec::Func f) {
  switch (f) {
    case AggregateSpec::Func::kCount:
      return "COUNT";
    case AggregateSpec::Func::kSum:
      return "SUM";
    case AggregateSpec::Func::kMin:
      return "MIN";
    case AggregateSpec::Func::kMax:
      return "MAX";
    case AggregateSpec::Func::kAvg:
      return "AVG";
  }
  return "?";
}

int PlanNode::TreeSize() const {
  int n = 1;
  for (const auto& c : children) n += c->TreeSize();
  return n;
}

ExprPtr PlanNode::join_predicate() const {
  return join_swapped ? SwapSides(*predicate) : predicate;
}

std::string PlanNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += PlanOpToString(op);
  if (!relation.empty()) out += "(" + relation + ")";
  if (predicate) out += " [" + predicate->ToString() + "]";
  if (!columns.empty()) out += " cols={" + JoinStrings(columns, ",") + "}";
  if (op == PlanOp::kProject && dedup) out += " dedup";
  if (join_swapped) out += " swapped";
  if (op == PlanOp::kAggregate) {
    std::vector<std::string> parts;
    for (const auto& a : aggregates) {
      parts.push_back(StrFormat("%s(%s)",
                                std::string(AggregateFuncToString(a.func)).c_str(),
                                a.column.c_str()));
    }
    out += " aggs={" + JoinStrings(parts, ",") + "}";
  }
  if (pipeline_fused) out += " pipelined";
  if (access_path != ScanAccessPath::kFullScan) {
    out += " via=" + std::string(ScanAccessPathToString(access_path));
    if (!index_name.empty()) out += "(" + index_name + ")";
  }
  if (pushdown) out += " pushdown";
  if (id >= 0) out += StrFormat("  #%d", id);
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1);
  return out;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->relation = relation;
  if (predicate) {
    // Reconstruct the expression tree with unbound column refs: binding
    // mutates ColumnRefExpr, so a shared expression would race when two
    // queries cloned from one template run concurrently.
    copy->predicate = predicate->TransformColumns(
        [](const ColumnRefExpr& ref) -> ExprPtr {
          return std::make_shared<ColumnRefExpr>(ref.name(), ref.side());
        });
  }
  copy->columns = columns;
  copy->join_swapped = join_swapped;
  copy->dedup = dedup;
  copy->bag_semantics = bag_semantics;
  copy->aggregates = aggregates;
  copy->pipeline_fused = pipeline_fused;
  copy->access_path = access_path;
  copy->index_name = index_name;
  copy->prune_bounds = prune_bounds;
  copy->pushdown = pushdown;
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

void ApplyPlanPolicies(const PlanPolicies& policies, PlanNode* root) {
  if (policies.pipeline == PipelinePolicy::kForceMaterialize) {
    root->pipeline_fused = false;
  }
  if (policies.index == IndexPolicy::kForceFullScan) {
    root->access_path = ScanAccessPath::kFullScan;
  }
  if (policies.pushdown == PushdownPolicy::kForceOff) root->pushdown = false;
  for (auto& child : root->children) ApplyPlanPolicies(policies, child.get());
}

PlanNodePtr MakeScan(std::string relation) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kScan;
  n->relation = std::move(relation);
  return n;
}

PlanNodePtr MakeRestrict(PlanNodePtr child, ExprPtr predicate) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kRestrict;
  n->children.push_back(std::move(child));
  n->predicate = std::move(predicate);
  return n;
}

PlanNodePtr MakeProject(PlanNodePtr child, std::vector<std::string> columns,
                        bool dedup) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kProject;
  n->children.push_back(std::move(child));
  n->columns = std::move(columns);
  n->dedup = dedup;
  return n;
}

PlanNodePtr MakeJoin(PlanNodePtr left, PlanNodePtr right, ExprPtr predicate) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kJoin;
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->predicate = std::move(predicate);
  return n;
}

PlanNodePtr MakeUnion(PlanNodePtr left, PlanNodePtr right, bool bag_semantics) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kUnion;
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->bag_semantics = bag_semantics;
  return n;
}

PlanNodePtr MakeDifference(PlanNodePtr left, PlanNodePtr right) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kDifference;
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  return n;
}

PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<std::string> group_by,
                          std::vector<AggregateSpec> aggregates) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kAggregate;
  n->children.push_back(std::move(child));
  n->columns = std::move(group_by);
  n->aggregates = std::move(aggregates);
  return n;
}

PlanNodePtr MakeAppend(PlanNodePtr child, std::string target_relation) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kAppend;
  n->children.push_back(std::move(child));
  n->relation = std::move(target_relation);
  return n;
}

PlanNodePtr MakeDelete(std::string target_relation, ExprPtr predicate) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kDelete;
  n->relation = std::move(target_relation);
  n->predicate = std::move(predicate);
  return n;
}

}  // namespace dfdb
