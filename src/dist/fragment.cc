#include "dist/fragment.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "ra/analyzer.h"
#include "ra/raql.h"

namespace dfdb {
namespace dist {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  return JoinStrings(names, ",");
}

std::string BracketList(const std::vector<std::string>& names) {
  // Spelled out (not `"[" + ... + "]"`): the rvalue operator+ chain trips
  // a gcc-12 -Werror=restrict false positive at -O2.
  std::string out = "[";
  out += JoinStrings(names, ", ");
  out += "]";
  return out;
}

/// True when every column of the comma-joined \p key_csv is in \p cols —
/// i.e. a stream partitioned by key_csv is also grouped-colocated for a
/// group-by over cols.
bool KeyCoveredBy(const std::string& key_csv,
                  const std::vector<std::string>& cols) {
  if (key_csv.empty()) return false;
  const std::set<std::string> have(cols.begin(), cols.end());
  size_t start = 0;
  while (start <= key_csv.size()) {
    const size_t comma = key_csv.find(',', start);
    const std::string part = key_csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (have.count(part) == 0) return false;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

/// All of \p names resolve in \p schema to equality-stable (non-double)
/// columns, so hash routing on them is sound.
bool ColumnsHashable(const Schema& schema,
                     const std::vector<std::string>& names) {
  if (names.empty()) return false;
  for (const std::string& name : names) {
    auto idx = schema.ColumnIndex(name);
    if (!idx.ok()) return false;
    if (schema.column(*idx).type == ColumnType::kDouble) return false;
  }
  return true;
}

}  // namespace

std::string ExchangeTempName(uint32_t exchange_id) {
  return StrFormat("__exq%u", exchange_id);
}

/// A subtree kept as composable RAQL text, annotated with where its data
/// lives: on every worker (optionally hash-partitioned by partition_key)
/// or gathered onto worker 0 (singleton).
struct FragmentPlanner::Stream {
  std::string raql;
  std::vector<net::FragmentInput> inputs;
  bool singleton = false;
  /// Comma-joined column names the stream is hash-partitioned by across
  /// workers; empty = unknown placement.
  std::string partition_key;
  const PlanNode* node = nullptr;  ///< Schema and cardinality source.
};

FragmentPlanner::FragmentPlanner(const Catalog* catalog,
                                 FragmentPlannerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      optimizer_(catalog),
      next_exchange_id_(options_.first_exchange_id) {}

uint64_t FragmentPlanner::EstimateBytes(const Stream& s) const {
  const double rows = optimizer_.EstimateRows(*s.node);
  const double bytes = rows * s.node->output_schema.tuple_width();
  return bytes < 0 ? 0 : static_cast<uint64_t>(bytes);
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::Cut(
    Stream s, net::ExchangeMode mode,
    const std::vector<std::string>& key_columns) {
  const Schema& schema = s.node->output_schema;
  net::FragmentRequest req;
  req.deadline_ms = options_.deadline_ms;
  req.text = std::move(s.raql);
  req.inputs = std::move(s.inputs);
  req.output_exchange_id = next_exchange_id_++;
  req.output_mode = mode;
  req.output_partitions = mode == net::ExchangeMode::kGather
                              ? 1
                              : static_cast<uint32_t>(options_.num_workers);
  for (const std::string& name : key_columns) {
    DFDB_ASSIGN_OR_RETURN(int idx, schema.ColumnIndex(name));
    req.output_key_cols.push_back(static_cast<uint32_t>(idx));
  }
  plan_.fragments.push_back(FragmentUnit{s.singleton, std::move(req)});
  const auto& placed = plan_.fragments.back().request;
  plan_.streams.push_back(StreamRoute{
      placed.output_exchange_id,
      static_cast<int>(plan_.fragments.size()) - 1, mode});

  Stream out;
  out.raql = ExchangeTempName(placed.output_exchange_id);
  out.inputs.push_back(
      net::FragmentInput{placed.output_exchange_id, out.raql, schema});
  out.singleton = mode == net::ExchangeMode::kGather;
  out.partition_key =
      mode == net::ExchangeMode::kPartition ? JoinNames(key_columns) : "";
  out.node = s.node;
  return out;
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildScan(
    const PlanNode& node) {
  Stream s;
  DFDB_ASSIGN_OR_RETURN(s.raql, PlanToRaql(node));
  s.node = &node;
  // Base relations are hash-partitioned across workers on the deployment's
  // partition column (when they carry it and it hashes soundly).
  if (options_.num_workers > 1 &&
      ColumnsHashable(node.output_schema, {options_.partition_column})) {
    s.partition_key = options_.partition_column;
  }
  return s;
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildJoin(
    const PlanNode& node) {
  // A join the optimizer swapped is composed as the join it replaced, so
  // the text yields node.output_schema's columns.
  DFDB_ASSIGN_OR_RETURN(Stream l, BuildStream(node.join_left()));
  DFDB_ASSIGN_OR_RETURN(Stream r, BuildStream(node.join_right()));
  DFDB_ASSIGN_OR_RETURN(std::string pred, ExprToRaql(*node.join_predicate()));

  auto compose = [&](std::string key) {
    Stream out;
    out.raql = StrFormat("join(%s, %s, %s)", l.raql.c_str(), r.raql.c_str(),
                         pred.c_str());
    out.inputs = std::move(l.inputs);
    out.inputs.insert(out.inputs.end(),
                      std::make_move_iterator(r.inputs.begin()),
                      std::make_move_iterator(r.inputs.end()));
    out.singleton = l.singleton && r.singleton;
    out.partition_key = std::move(key);
    out.node = &node;
    return out;
  };

  if (options_.num_workers == 1) return compose(l.partition_key);

  const std::vector<EquiJoinKey> keys = ExtractEquiJoinKeys(node);
  if (keys.empty()) {
    // No hash-partitionable key: colocate both sides on worker 0.
    if (!l.singleton) {
      DFDB_ASSIGN_OR_RETURN(l, Cut(std::move(l), net::ExchangeMode::kGather,
                                   {}));
    }
    if (!r.singleton) {
      DFDB_ASSIGN_OR_RETURN(r, Cut(std::move(r), net::ExchangeMode::kGather,
                                   {}));
    }
    return compose("");
  }

  std::vector<std::string> lcols, rcols;
  for (const EquiJoinKey& k : keys) {
    lcols.push_back(k.left_column);
    rcols.push_back(k.right_column);
  }
  const std::string lkey = JoinNames(lcols);
  const std::string rkey = JoinNames(rcols);

  if (l.singleton && r.singleton) return compose("");

  if (l.singleton != r.singleton) {
    // Mixed placement: ship the singleton side everywhere when it is
    // small, else pull the distributed side onto worker 0.
    Stream& single = l.singleton ? l : r;
    Stream& dist = l.singleton ? r : l;
    if (EstimateBytes(single) <= options_.broadcast_max_bytes) {
      const std::string key = dist.partition_key;
      DFDB_ASSIGN_OR_RETURN(
          single, Cut(std::move(single), net::ExchangeMode::kBroadcast, {}));
      return compose(key);
    }
    DFDB_ASSIGN_OR_RETURN(
        dist, Cut(std::move(dist), net::ExchangeMode::kGather, {}));
    return compose("");
  }

  // Both sides on all workers. Co-partitioned on the join key: local join.
  if (l.partition_key == lkey && r.partition_key == rkey) {
    return compose(lkey);
  }
  // Broadcast the (estimated) small side so the big side never moves.
  const uint64_t lbytes = EstimateBytes(l);
  const uint64_t rbytes = EstimateBytes(r);
  if (std::min(lbytes, rbytes) <= options_.broadcast_max_bytes) {
    if (rbytes <= lbytes) {
      const std::string key = l.partition_key;
      DFDB_ASSIGN_OR_RETURN(
          r, Cut(std::move(r), net::ExchangeMode::kBroadcast, {}));
      return compose(key);
    }
    const std::string key = r.partition_key;
    DFDB_ASSIGN_OR_RETURN(
        l, Cut(std::move(l), net::ExchangeMode::kBroadcast, {}));
    return compose(key);
  }
  // Distributed hash join: repartition whichever sides are not already
  // hash-placed on their join key columns.
  if (l.partition_key != lkey) {
    DFDB_ASSIGN_OR_RETURN(
        l, Cut(std::move(l), net::ExchangeMode::kPartition, lcols));
  }
  if (r.partition_key != rkey) {
    DFDB_ASSIGN_OR_RETURN(
        r, Cut(std::move(r), net::ExchangeMode::kPartition, rcols));
  }
  return compose(lkey);
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildAggregate(
    const PlanNode& node) {
  DFDB_ASSIGN_OR_RETURN(Stream c, BuildStream(node.child(0)));
  DFDB_ASSIGN_OR_RETURN(std::string specs,
                        AggregateListToRaql(node.aggregates));
  const std::vector<std::string>& groups = node.columns;

  auto compose = [&](std::string key) {
    Stream out;
    out.raql = StrFormat("agg(%s, %s, %s)", c.raql.c_str(),
                         BracketList(groups).c_str(), specs.c_str());
    out.inputs = std::move(c.inputs);
    out.singleton = c.singleton;
    out.partition_key = std::move(key);
    out.node = &node;
    return out;
  };

  if (options_.num_workers == 1 || c.singleton) {
    return compose(KeyCoveredBy(c.partition_key, groups) ? c.partition_key
                                                         : "");
  }
  if (groups.empty()) {
    // Global aggregate: exact only with every row in one place.
    DFDB_ASSIGN_OR_RETURN(c, Cut(std::move(c), net::ExchangeMode::kGather,
                                 {}));
    return compose("");
  }
  if (KeyCoveredBy(c.partition_key, groups)) {
    // Every group already lives on exactly one worker.
    return compose(c.partition_key);
  }
  if (ColumnsHashable(node.child(0).output_schema, groups)) {
    // Shuffle on the group keys, then aggregate each group exactly where
    // all of its rows landed — no partial/merge rewrite needed.
    DFDB_ASSIGN_OR_RETURN(
        c, Cut(std::move(c), net::ExchangeMode::kPartition, groups));
    return compose(JoinNames(groups));
  }
  DFDB_ASSIGN_OR_RETURN(c, Cut(std::move(c), net::ExchangeMode::kGather, {}));
  return compose("");
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildProject(
    const PlanNode& node) {
  DFDB_ASSIGN_OR_RETURN(Stream c, BuildStream(node.child(0)));

  auto compose = [&](bool dedup, std::string key) {
    Stream out;
    out.raql = StrFormat("project(%s, %s%s)", c.raql.c_str(),
                         BracketList(node.columns).c_str(),
                         dedup ? ", dedup" : "");
    out.inputs = std::move(c.inputs);
    out.singleton = c.singleton;
    out.partition_key = std::move(key);
    out.node = &node;
    return out;
  };

  // The partition key survives projection iff all its columns do.
  const std::string kept_key =
      KeyCoveredBy(c.partition_key, node.columns) ? c.partition_key : "";
  if (!node.dedup || options_.num_workers == 1 || c.singleton) {
    return compose(node.dedup, kept_key);
  }
  if (!kept_key.empty()) {
    // Duplicates agree on every column, including the partition key, so
    // they are already colocated: local dedup is global dedup.
    return compose(true, kept_key);
  }
  if (ColumnsHashable(node.output_schema, node.columns)) {
    // Project without dedup, shuffle on all output columns, dedup locally.
    Stream projected = compose(false, "");
    DFDB_ASSIGN_OR_RETURN(
        c, Cut(std::move(projected), net::ExchangeMode::kPartition,
               node.columns));
    Stream out;
    out.raql = StrFormat("project(%s, %s, dedup)", c.raql.c_str(),
                         BracketList(node.columns).c_str());
    out.inputs = std::move(c.inputs);
    out.singleton = false;
    out.partition_key = JoinNames(node.columns);
    out.node = &node;
    return out;
  }
  // Unhashable projected columns (doubles): dedup on one worker.
  Stream projected = compose(false, "");
  DFDB_ASSIGN_OR_RETURN(
      c, Cut(std::move(projected), net::ExchangeMode::kGather, {}));
  Stream out;
  out.raql = StrFormat("project(%s, %s, dedup)", c.raql.c_str(),
                       BracketList(node.columns).c_str());
  out.inputs = std::move(c.inputs);
  out.singleton = true;
  out.node = &node;
  return out;
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildBinarySetOp(
    const PlanNode& node) {
  DFDB_ASSIGN_OR_RETURN(Stream l, BuildStream(node.child(0)));
  DFDB_ASSIGN_OR_RETURN(Stream r, BuildStream(node.child(1)));

  auto compose = [&] {
    Stream out;
    out.raql = node.op == PlanOp::kUnion
                   ? StrFormat("union(%s, %s%s)", l.raql.c_str(),
                               r.raql.c_str(),
                               node.bag_semantics ? ", bag" : "")
                   : StrFormat("diff(%s, %s)", l.raql.c_str(),
                               r.raql.c_str());
    out.inputs = std::move(l.inputs);
    out.inputs.insert(out.inputs.end(),
                      std::make_move_iterator(r.inputs.begin()),
                      std::make_move_iterator(r.inputs.end()));
    out.singleton = l.singleton && r.singleton;
    out.node = &node;
    return out;
  };

  if (options_.num_workers == 1) return compose();
  // Bag union distributes as-is (concatenation commutes with partitioning).
  if (node.op == PlanOp::kUnion && node.bag_semantics && !l.singleton &&
      !r.singleton) {
    return compose();
  }
  // Set semantics (and mixed placement): colocate both sides on worker 0.
  if (!l.singleton) {
    DFDB_ASSIGN_OR_RETURN(l, Cut(std::move(l), net::ExchangeMode::kGather,
                                 {}));
  }
  if (!r.singleton) {
    DFDB_ASSIGN_OR_RETURN(r, Cut(std::move(r), net::ExchangeMode::kGather,
                                 {}));
  }
  return compose();
}

StatusOr<FragmentPlanner::Stream> FragmentPlanner::BuildStream(
    const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kScan:
      return BuildScan(node);
    case PlanOp::kRestrict: {
      DFDB_ASSIGN_OR_RETURN(Stream c, BuildStream(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string pred, ExprToRaql(*node.predicate));
      Stream out;
      out.raql = StrFormat("restrict(%s, %s)", c.raql.c_str(), pred.c_str());
      out.inputs = std::move(c.inputs);
      out.singleton = c.singleton;
      out.partition_key = c.partition_key;
      out.node = &node;
      return out;
    }
    case PlanOp::kProject:
      return BuildProject(node);
    case PlanOp::kJoin:
      return BuildJoin(node);
    case PlanOp::kUnion:
    case PlanOp::kDifference:
      return BuildBinarySetOp(node);
    case PlanOp::kAggregate:
      return BuildAggregate(node);
    case PlanOp::kAppend:
    case PlanOp::kDelete:
      return Status::InvalidArgument(
          "writes are not supported in distributed execution");
  }
  return Status::InvalidArgument("unknown plan operator");
}

StatusOr<DistributedPlan> FragmentPlanner::Plan(PlanNode* root) {
  if (options_.num_workers < 1) {
    return Status::InvalidArgument("need at least one worker");
  }
  Analyzer analyzer(catalog_);
  DFDB_ASSIGN_OR_RETURN(QueryAnalysis analysis, analyzer.Resolve(root));
  if (!analysis.write_set.empty()) {
    return Status::InvalidArgument(
        "writes are not supported in distributed execution");
  }
  plan_.num_workers = options_.num_workers;
  DFDB_ASSIGN_OR_RETURN(Stream s, BuildStream(*root));

  // Root fragment: gather the result stream to the coordinator.
  net::FragmentRequest req;
  req.deadline_ms = options_.deadline_ms;
  req.text = std::move(s.raql);
  req.inputs = std::move(s.inputs);
  req.output_exchange_id = next_exchange_id_++;
  req.output_mode = net::ExchangeMode::kGather;
  req.output_partitions = 1;
  plan_.root_exchange_id = req.output_exchange_id;
  // One worker makes every placement trivially a singleton.
  const bool root_singleton = s.singleton || options_.num_workers == 1;
  plan_.fragments.push_back(FragmentUnit{root_singleton, std::move(req)});
  plan_.streams.push_back(StreamRoute{
      plan_.root_exchange_id, static_cast<int>(plan_.fragments.size()) - 1,
      net::ExchangeMode::kGather});
  plan_.result_schema = root->output_schema;
  plan_.next_exchange_id = next_exchange_id_;
  return std::move(plan_);
}

}  // namespace dist
}  // namespace dfdb
