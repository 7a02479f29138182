#include "ra/analyzer.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace dfdb {

namespace {

Status CheckArity(const PlanNode& node, int want) {
  if (node.num_children() != want) {
    return Status::InvalidArgument(
        StrFormat("%s expects %d input(s), got %d",
                  std::string(PlanOpToString(node.op)).c_str(), want,
                  node.num_children()));
  }
  return Status::OK();
}

/// Union compatibility: same column types and widths position by position.
Status CheckUnionCompatible(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument("inputs have different column counts");
  }
  for (int i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).type != b.column(i).type ||
        a.column(i).width != b.column(i).width) {
      return Status::InvalidArgument(
          StrFormat("column %d type/width mismatch between inputs", i));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<QueryAnalysis> Analyzer::Resolve(PlanNode* root) const {
  if (root == nullptr) return Status::InvalidArgument("null query tree");
  QueryAnalysis analysis;
  int next_id = 0;
  DFDB_RETURN_IF_ERROR(ResolveNode(root, 1, &next_id, &analysis));
  analysis.num_nodes = next_id;
  return analysis;
}

Status Analyzer::ResolveNode(PlanNode* node, int depth, int* next_id,
                             QueryAnalysis* analysis) const {
  analysis->max_depth = std::max(analysis->max_depth, depth);
  for (auto& child : node->children) {
    DFDB_RETURN_IF_ERROR(ResolveNode(child.get(), depth + 1, next_id, analysis));
  }

  switch (node->op) {
    case PlanOp::kScan: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 0));
      DFDB_ASSIGN_OR_RETURN(RelationMeta meta,
                            catalog_->GetRelation(node->relation));
      node->output_schema = meta.schema;
      analysis->read_set.insert(node->relation);
      break;
    }
    case PlanOp::kRestrict: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 1));
      if (!node->predicate) {
        return Status::InvalidArgument("Restrict requires a predicate");
      }
      const Schema& in = node->child(0).output_schema;
      DFDB_RETURN_IF_ERROR(node->predicate->Bind(in, nullptr));
      if (node->predicate->ReferencesRight()) {
        return Status::InvalidArgument(
            "Restrict predicate references a right input");
      }
      node->output_schema = in;
      analysis->num_restricts++;
      break;
    }
    case PlanOp::kProject: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 1));
      if (node->columns.empty()) {
        return Status::InvalidArgument("Project requires at least one column");
      }
      const Schema& in = node->child(0).output_schema;
      std::vector<int> indices;
      for (const std::string& name : node->columns) {
        DFDB_ASSIGN_OR_RETURN(int idx, in.ColumnIndex(name));
        indices.push_back(idx);
      }
      DFDB_ASSIGN_OR_RETURN(node->output_schema, in.Project(indices));
      analysis->num_projects++;
      break;
    }
    case PlanOp::kJoin: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 2));
      if (!node->predicate) {
        return Status::InvalidArgument("Join requires a predicate");
      }
      DFDB_RETURN_IF_ERROR(node->predicate->Bind(
          node->child(0).output_schema, &node->child(1).output_schema));
      node->output_schema = node->join_left().output_schema.Concat(
          node->join_right().output_schema);
      analysis->num_joins++;
      break;
    }
    case PlanOp::kUnion:
    case PlanOp::kDifference: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 2));
      DFDB_RETURN_IF_ERROR(CheckUnionCompatible(node->child(0).output_schema,
                                                node->child(1).output_schema)
                               .WithContext(std::string(PlanOpToString(node->op))));
      node->output_schema = node->child(0).output_schema;
      break;
    }
    case PlanOp::kAggregate: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 1));
      if (node->aggregates.empty()) {
        return Status::InvalidArgument("Aggregate requires at least one spec");
      }
      const Schema& in = node->child(0).output_schema;
      std::vector<Column> out_cols;
      for (const std::string& g : node->columns) {
        DFDB_ASSIGN_OR_RETURN(int idx, in.ColumnIndex(g));
        out_cols.push_back(in.column(idx));
      }
      for (const AggregateSpec& spec : node->aggregates) {
        if (spec.output_name.empty()) {
          return Status::InvalidArgument("aggregate output name is empty");
        }
        Column col;
        col.name = spec.output_name;
        if (spec.func == AggregateSpec::Func::kCount) {
          col.type = ColumnType::kInt64;
          col.width = 8;
        } else {
          DFDB_ASSIGN_OR_RETURN(int idx, in.ColumnIndex(spec.column));
          const Column& src = in.column(idx);
          if (src.type == ColumnType::kChar &&
              spec.func != AggregateSpec::Func::kMin &&
              spec.func != AggregateSpec::Func::kMax) {
            return Status::InvalidArgument(
                "SUM/AVG require a numeric column: " + spec.column);
          }
          switch (spec.func) {
            case AggregateSpec::Func::kSum:
              col.type = src.type == ColumnType::kDouble ? ColumnType::kDouble
                                                         : ColumnType::kInt64;
              col.width = 8;
              break;
            case AggregateSpec::Func::kAvg:
              col.type = ColumnType::kDouble;
              col.width = 8;
              break;
            case AggregateSpec::Func::kMin:
            case AggregateSpec::Func::kMax:
              col.type = src.type;
              col.width = src.width;
              break;
            case AggregateSpec::Func::kCount:
              break;  // Handled above.
          }
        }
        out_cols.push_back(std::move(col));
      }
      DFDB_ASSIGN_OR_RETURN(node->output_schema,
                            Schema::Create(std::move(out_cols)));
      break;
    }
    case PlanOp::kAppend: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 1));
      DFDB_ASSIGN_OR_RETURN(RelationMeta meta,
                            catalog_->GetRelation(node->relation));
      DFDB_RETURN_IF_ERROR(
          CheckUnionCompatible(node->child(0).output_schema, meta.schema)
              .WithContext("Append into " + node->relation));
      node->output_schema = node->child(0).output_schema;
      analysis->write_set.insert(node->relation);
      break;
    }
    case PlanOp::kDelete: {
      DFDB_RETURN_IF_ERROR(CheckArity(*node, 0));
      if (!node->predicate) {
        return Status::InvalidArgument("Delete requires a predicate");
      }
      DFDB_ASSIGN_OR_RETURN(RelationMeta meta,
                            catalog_->GetRelation(node->relation));
      DFDB_RETURN_IF_ERROR(node->predicate->Bind(meta.schema, nullptr));
      if (node->predicate->ReferencesRight()) {
        return Status::InvalidArgument(
            "Delete predicate references a right input");
      }
      node->output_schema = meta.schema;
      analysis->read_set.insert(node->relation);
      analysis->write_set.insert(node->relation);
      break;
    }
  }

  node->id = (*next_id)++;
  node->resolved = true;
  return Status::OK();
}

}  // namespace dfdb
