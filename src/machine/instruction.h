/// \file instruction.h
/// \brief Compilation of query trees into machine instructions.
///
/// In the Section 4 machine, scans are not separate instructions: "If the
/// instruction's operand(s) are source relations in the database, then the
/// instruction is ready to be executed. In this case the MC will also send
/// to the IC a page table describing each operand." Each non-scan plan node
/// therefore becomes one MachineInstruction whose operands are either base
/// relations (page tables) or the outputs of other instructions.

#ifndef DFDB_MACHINE_INSTRUCTION_H_
#define DFDB_MACHINE_INSTRUCTION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/statusor.h"
#include "ra/analyzer.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"

namespace dfdb {

/// \brief One operand of a machine instruction.
struct MachineOperand {
  /// A base operand's source: the plan node whose relation it reads (its
  /// kScan leaf, or a delete's own node for its target). Points into the
  /// program's plan clones; null = the output of another instruction.
  const PlanNode* scan = nullptr;
  /// Producing instruction index in the program (no scan).
  int producer = -1;
  /// Operand tuple schema.
  Schema schema;
  /// Pipeline fusion: a restrict folded into this operand, and its
  /// predicate compiled once here. The IC applies it while compacting
  /// staged pages into machine units, so the restrict never occupies an IP
  /// and its result pages never ride the ring. Null = unfiltered operand.
  const PlanNode* filter = nullptr;
  std::optional<CompiledPredicate> filter_pred;
};

/// \brief One relational-algebra instruction as the machine executes it.
struct MachineInstruction {
  int id = -1;
  uint64_t query_id = 0;
  /// Position of the query in the submitted batch.
  size_t query_index = 0;
  PlanOp op = PlanOp::kRestrict;
  /// The resolved plan node (predicates, columns, schemas). Owned by the
  /// program's plan clones.
  const PlanNode* node = nullptr;
  std::vector<MachineOperand> operands;
  /// Consuming instruction (-1 = results go to the host via the MC).
  int consumer = -1;
  /// Operand slot at the consumer.
  int consumer_slot = 0;
  Schema output_schema;
  /// Stateful operators (dedup project, aggregate, difference, set union)
  /// run as barriers on a single IP regardless of granularity — the paper
  /// explicitly leaves parallel project/duplicate elimination as future
  /// work (Section 5.0).
  bool barrier = false;
};

/// \brief Per-edge pipeline decisions taken at compile time
/// (machine.pipeline.*).
struct PipelineCompileStats {
  uint64_t fused_edges = 0;         ///< Producers folded into an operand.
  uint64_t materialized_edges = 0;  ///< Edges left as instructions.
  /// Edges the plan marked fused but the compiler could not fold (producer
  /// not a restrict-over-base, or the predicate refused compilation).
  uint64_t fallbacks = 0;
};

/// \brief A compiled batch of queries.
struct MachineProgram {
  std::vector<std::unique_ptr<PlanNode>> plans;  ///< Resolved clones (owned).
  std::vector<QueryAnalysis> analyses;           ///< Per query.
  std::vector<MachineInstruction> instructions;
  /// Root instruction id per query (results to host).
  std::vector<int> roots;
  PipelineCompileStats pipeline;
};

/// \brief Compiles \p queries (cloned and resolved against \p catalog).
///
/// A bare-scan query is wrapped in an always-true restrict so that it is an
/// instruction. Queries are numbered by position. \p policies are applied
/// to each resolved clone (ApplyPlanPolicies) before it compiles.
///
/// Per-edge fusion: a kRestrict producer over a base relation whose
/// predicate compiles is folded into the consumer's operand
/// (MachineOperand::filter) when the plan marks the edge.
StatusOr<MachineProgram> CompileProgram(
    const Catalog& catalog, const std::vector<const PlanNode*>& queries,
    const PlanPolicies& policies = {});

}  // namespace dfdb

#endif  // DFDB_MACHINE_INSTRUCTION_H_
