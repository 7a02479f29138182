#include "machine/instruction.h"

#include "common/macros.h"
#include "ra/expr_compile.h"

namespace dfdb {

namespace {

bool IsBarrierOp(const PlanNode& n) {
  switch (n.op) {
    case PlanOp::kAggregate:
    case PlanOp::kDifference:
      return true;
    case PlanOp::kProject:
      return n.dedup;
    case PlanOp::kUnion:
      return !n.bag_semantics;
    default:
      return false;
  }
}

/// The compiled predicate of \p child when the fused edge below it can be
/// folded into a consumer operand: a restrict directly over a base relation
/// whose predicate the compiler accepts. The IC then filters during staging
/// compaction and the restrict needs no instruction at all.
std::optional<CompiledPredicate> FoldedFilter(const PlanNode& child) {
  if (child.op != PlanOp::kRestrict || child.predicate == nullptr ||
      child.num_children() != 1 || child.child(0).op != PlanOp::kScan) {
    return std::nullopt;
  }
  auto compiled = CompiledPredicate::Compile(*child.predicate,
                                             child.child(0).output_schema);
  if (!compiled.ok()) return std::nullopt;
  return *std::move(compiled);
}

/// Compiles the subtree rooted at \p n; returns the producing instruction
/// id. \p n must not be a scan.
int CompileNode(const PlanNode* n, uint64_t query_id, size_t query_index,
                MachineProgram* prog) {
  MachineInstruction instr;
  instr.query_id = query_id;
  instr.query_index = query_index;
  instr.op = n->op;
  instr.node = n;
  instr.output_schema = n->output_schema;
  instr.barrier = IsBarrierOp(*n);
  for (int i = 0; i < n->num_children(); ++i) {
    const PlanNode& child = n->child(i);
    MachineOperand operand;
    operand.schema = child.output_schema;
    if (child.op == PlanOp::kScan) {
      operand.scan = &child;
    } else {
      if (child.pipeline_fused) operand.filter_pred = FoldedFilter(child);
      if (operand.filter_pred.has_value()) {
        operand.scan = &child.child(0);
        operand.filter = &child;
        prog->pipeline.fused_edges++;
        instr.operands.push_back(std::move(operand));
        continue;
      }
      if (child.pipeline_fused) prog->pipeline.fallbacks++;
      prog->pipeline.materialized_edges++;
      operand.producer = CompileNode(&child, query_id, query_index, prog);
      prog->instructions[static_cast<size_t>(operand.producer)].consumer_slot =
          i;
    }
    instr.operands.push_back(std::move(operand));
  }
  // kDelete has no children but reads its target relation as an operand.
  if (n->op == PlanOp::kDelete) {
    MachineOperand operand;
    operand.scan = n;
    operand.schema = n->output_schema;
    instr.operands.push_back(std::move(operand));
  }
  instr.id = static_cast<int>(prog->instructions.size());
  prog->instructions.push_back(std::move(instr));
  const int id = prog->instructions.back().id;
  // Children compiled above recorded their slots; now set their consumer.
  for (int i = 0; i < n->num_children(); ++i) {
    const MachineOperand& operand =
        prog->instructions[static_cast<size_t>(id)].operands[static_cast<size_t>(
            i)];
    if (operand.scan == nullptr) {
      prog->instructions[static_cast<size_t>(operand.producer)].consumer = id;
    }
  }
  return id;
}

}  // namespace

StatusOr<MachineProgram> CompileProgram(
    const Catalog& catalog, const std::vector<const PlanNode*>& queries,
    const PlanPolicies& policies) {
  MachineProgram prog;
  Analyzer analyzer(&catalog);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (queries[qi] == nullptr) {
      return Status::InvalidArgument("null query plan");
    }
    std::unique_ptr<PlanNode> plan = queries[qi]->Clone();
    // Bare scans become an always-true restrict so every query has at least
    // one instruction.
    if (plan->op == PlanOp::kScan) {
      plan = MakeRestrict(std::move(plan), Eq(Lit(1), Lit(1)));
    }
    DFDB_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          analyzer.Resolve(plan.get()));
    ApplyPlanPolicies(policies, plan.get());
    prog.analyses.push_back(std::move(analysis));
    const uint64_t query_id = static_cast<uint64_t>(qi) + 1;
    const int root = CompileNode(plan.get(), query_id, qi, &prog);
    prog.roots.push_back(root);
    prog.plans.push_back(std::move(plan));
  }
  return prog;
}

}  // namespace dfdb
