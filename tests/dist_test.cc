/// \file dist_test.cc
/// \brief Distributed execution tests: fragment planning, multi-worker
/// clusters of in-process net::Servers, and byte-identical results between
/// distributed and single-node reference execution.
///
/// Every end-to-end case compares the distributed result multiset (sorted
/// raw tuple bytes) against ReferenceExecutor over the unpartitioned paper
/// database — the union-of-partitions invariant plus exactly-once group
/// placement means the bytes must match, not just the row counts.

#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dist/fragment.h"
#include "dist/front_server.h"
#include "engine/reference.h"
#include "net/client.h"
#include "net/server.h"
#include "ra/optimizer.h"
#include "ra/parser.h"
#include "tests/test_util.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace dist {
namespace {

constexpr double kScale = 0.2;
constexpr uint64_t kSeed = 42;

std::vector<std::string> SortedRows(const std::string& tuples, int width) {
  std::vector<std::string> rows;
  if (width <= 0) return rows;
  for (size_t off = 0; off + static_cast<size_t>(width) <= tuples.size();
       off += static_cast<size_t>(width)) {
    rows.push_back(tuples.substr(off, static_cast<size_t>(width)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  const int width = result.schema().tuple_width();
  for (const PagePtr& page : result.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      Slice t = page->tuple(i);
      rows.emplace_back(t.data(), t.size());
    }
  }
  std::sort(rows.begin(), rows.end());
  (void)width;
  return rows;
}

/// An N-worker cluster of in-process servers, each loaded with its hash
/// partition of the paper database, plus a coordinator planning against
/// the data-free paper catalog.
class Cluster {
 public:
  static StatusOr<std::unique_ptr<Cluster>> Make(
      int workers, uint64_t broadcast_max_bytes = 96 * 1024) {
    auto cluster = std::make_unique<Cluster>();
    std::vector<WorkerAddress> addrs;
    for (int w = 0; w < workers; ++w) {
      auto storage = std::make_unique<StorageEngine>(4096);
      DFDB_RETURN_IF_ERROR(BuildPartitionedPaperDatabase(
                               storage.get(), w, workers, kScale, kSeed)
                               .status());
      net::ServerOptions options;
      options.port = 0;
      options.scheduler.exec.num_processors = 2;
      auto server =
          std::make_unique<net::Server>(storage.get(), std::move(options));
      DFDB_RETURN_IF_ERROR(server->Start());
      addrs.push_back(WorkerAddress{"127.0.0.1", server->port()});
      cluster->storages_.push_back(std::move(storage));
      cluster->servers_.push_back(std::move(server));
    }
    DFDB_RETURN_IF_ERROR(BuildPaperCatalog(&cluster->catalog_, kScale));
    CoordinatorOptions options;
    options.workers = std::move(addrs);
    options.partition_column = std::string(kPartitionColumn);
    options.broadcast_max_bytes = broadcast_max_bytes;
    cluster->coordinator_ =
        std::make_unique<Coordinator>(&cluster->catalog_, std::move(options));
    DFDB_RETURN_IF_ERROR(cluster->coordinator_->Connect());
    return cluster;
  }

  ~Cluster() {
    coordinator_.reset();
    for (auto& server : servers_) server->Stop();
  }

  Coordinator& coordinator() { return *coordinator_; }
  net::Server& server(int w) { return *servers_[static_cast<size_t>(w)]; }
  const Catalog& catalog() const { return catalog_; }

 private:
  std::vector<std::unique_ptr<StorageEngine>> storages_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  Catalog catalog_;
  std::unique_ptr<Coordinator> coordinator_;
};

/// The query mix every cluster shape is checked against. Aggregates stick
/// to integer columns: cross-worker placement must not perturb a single
/// result byte, and float sums are order-sensitive.
const char* const kQueries[] = {
    "restrict(r10, k5 = 2)",
    "project(restrict(r01, k1000 < 50), [id, k100])",
    "join(restrict(r01, k1000 < 100), r06, k100 = right.k100)",
    "join(restrict(r02, k1000 < 60), restrict(r10, k1000 < 80), "
    "k25 = right.k25)",
    "agg(r02, [k10], [count() as n, sum(k1000) as s])",
    "agg(r01, [id], [count() as n])",
    "agg(restrict(r03, k2 = 0), [], [count() as n, min(k1000) as lo, "
    "max(k1000) as hi])",
    "project(r05, [k25], dedup)",
    "union(restrict(r10, k5 = 0), restrict(r11, k5 = 0))",
    "diff(project(r10, [k100], dedup), project(r11, [k1000], dedup))",
    "agg(join(restrict(r01, k1000 < 150), r06, k100 = right.k100), [k10], "
    "[count() as n, sum(k25) as s])",
};

class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_storage_ = std::make_unique<StorageEngine>(4096);
    ASSERT_OK_AND_ASSIGN(int64_t bytes,
                         BuildPaperDatabase(reference_storage_.get(), kScale,
                                            kSeed));
    ASSERT_GT(bytes, 0);
  }

 public:
  std::vector<std::string> ReferenceRows(const std::string& text) {
    auto parsed = ParseQuery(text);
    EXPECT_OK(parsed.status());
    ReferenceExecutor reference(reference_storage_.get());
    auto result = reference.Execute(**parsed);
    EXPECT_OK(result.status());
    return SortedRows(*result);
  }

  std::unique_ptr<StorageEngine> reference_storage_;
};

void CheckQueryMix(Cluster* cluster, DistTest* test) {
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    auto result = cluster->coordinator().Execute(text);
    ASSERT_OK(result.status());
    EXPECT_EQ(SortedRows(result->tuples, result->schema.tuple_width()),
              test->ReferenceRows(text));
  }
}

// --- planner ----------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(BuildPaperCatalog(&catalog_, kScale)); }

  StatusOr<DistributedPlan> Plan(const std::string& text, int workers,
                                 uint64_t broadcast_max_bytes = 96 * 1024) {
    DFDB_ASSIGN_OR_RETURN(PlanNodePtr root, ParseQuery(text));
    return PlanTree(root.get(), workers, broadcast_max_bytes);
  }

  StatusOr<DistributedPlan> PlanTree(PlanNode* root, int workers,
                                     uint64_t broadcast_max_bytes) {
    FragmentPlannerOptions options;
    options.num_workers = workers;
    options.partition_column = std::string(kPartitionColumn);
    options.broadcast_max_bytes = broadcast_max_bytes;
    FragmentPlanner planner(&catalog_, options);
    return planner.Plan(root);
  }

  Catalog catalog_;
};

TEST_F(PlannerTest, SingleWorkerIsOneFragment) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      Plan("join(restrict(r01, k1000 < 100), r06, k100 = right.k100)", 1));
  EXPECT_EQ(plan.fragments.size(), 1u);
  ASSERT_EQ(plan.streams.size(), 1u);
  EXPECT_EQ(plan.streams[0].mode, net::ExchangeMode::kGather);
  EXPECT_TRUE(plan.fragments[0].singleton);
}

TEST_F(PlannerTest, EquiJoinRepartitionsBothSides) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      Plan("join(r01, r02, k1000 = right.k1000)", 3));
  int repartitions = 0;
  for (const StreamRoute& route : plan.streams) {
    if (route.mode == net::ExchangeMode::kPartition) repartitions++;
  }
  EXPECT_EQ(repartitions, 2);
  EXPECT_EQ(plan.num_workers, 3);
}

TEST_F(PlannerTest, PartitionColumnGroupingSkipsShuffle) {
  // Grouping by the base-relation partition column needs no repartition:
  // every group is already worker-local.
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       Plan("agg(r01, [id], [count() as n])", 3));
  ASSERT_EQ(plan.streams.size(), 1u);
  EXPECT_EQ(plan.streams[0].mode, net::ExchangeMode::kGather);
  EXPECT_EQ(plan.streams[0].exchange_id, plan.root_exchange_id);
}

TEST_F(PlannerTest, GroupByOtherColumnRepartitions) {
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       Plan("agg(r01, [k10], [count() as n])", 3));
  int repartitions = 0;
  for (const StreamRoute& route : plan.streams) {
    if (route.mode == net::ExchangeMode::kPartition) repartitions++;
  }
  EXPECT_EQ(repartitions, 1);
}

TEST_F(PlannerTest, WritesRejected) {
  auto plan = Plan("append(restrict(r01, k2 = 0), r02)", 3);
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST_F(PlannerTest, ExchangeIdsThreadAcrossPlans) {
  ASSERT_OK_AND_ASSIGN(DistributedPlan first,
                       Plan("agg(r01, [k10], [count() as n])", 3));
  FragmentPlannerOptions options;
  options.num_workers = 3;
  options.first_exchange_id = first.next_exchange_id;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr root,
                       ParseQuery("agg(r01, [k10], [count() as n])"));
  FragmentPlanner planner(&catalog_, options);
  ASSERT_OK_AND_ASSIGN(DistributedPlan second, planner.Plan(root.get()));
  for (const StreamRoute& route : second.streams) {
    EXPECT_GE(route.exchange_id, first.next_exchange_id);
  }
}

TEST_F(PlannerTest, SwappedJoinIsPlannedInItsLogicalOrder) {
  // The optimizer swaps this join (the restricted r10 is the smaller
  // input). Planned as written or optimized, every fragment, route and the
  // result schema must be the same: the planner composes a swapped join as
  // the join it replaced, never with its columns reordered.
  const std::string text =
      "join(restrict(r10, k1000 < 50), r01, k25 = right.k100)";
  ASSERT_OK_AND_ASSIGN(PlanNodePtr parsed, ParseQuery(text));
  Optimizer optimizer(&catalog_);
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*parsed, &report));
  ASSERT_EQ(report.joins_swapped, 1);
  ASSERT_TRUE(optimized->join_swapped);
  // One worker, a broadcast of the small side, and a repartition of both.
  for (auto [workers, broadcast_max] :
       {std::pair<int, uint64_t>{1, 96 * 1024}, {3, 96 * 1024}, {3, 0}}) {
    SCOPED_TRACE(workers);
    SCOPED_TRACE(broadcast_max);
    ASSERT_OK_AND_ASSIGN(DistributedPlan want,
                         Plan(text, workers, broadcast_max));
    ASSERT_OK_AND_ASSIGN(DistributedPlan got,
                         PlanTree(optimized.get(), workers, broadcast_max));
    EXPECT_EQ(got.result_schema, want.result_schema);
    ASSERT_EQ(got.fragments.size(), want.fragments.size());
    for (size_t i = 0; i < want.fragments.size(); ++i) {
      EXPECT_EQ(got.fragments[i].request.text, want.fragments[i].request.text);
      EXPECT_EQ(got.fragments[i].request.output_key_cols,
                want.fragments[i].request.output_key_cols);
      EXPECT_EQ(got.fragments[i].singleton, want.fragments[i].singleton);
    }
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (size_t i = 0; i < want.streams.size(); ++i) {
      EXPECT_EQ(got.streams[i].mode, want.streams[i].mode);
    }
  }
}

TEST(ExchangeTempNameTest, Format) {
  EXPECT_EQ(ExchangeTempName(7), "__exq7");
}

// --- end to end -------------------------------------------------------------

TEST_F(DistTest, SingleWorkerMatchesReference) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(1));
  CheckQueryMix(cluster.get(), this);
}

TEST_F(DistTest, ThreeWorkersMatchReference) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(3));
  CheckQueryMix(cluster.get(), this);
  EXPECT_GT(cluster->coordinator().counters().repartitions.load(), 0u);
  EXPECT_GT(cluster->coordinator().counters().bytes_shuffled.load(), 0u);
}

TEST_F(DistTest, TwoWorkersMatchReference) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(2));
  CheckQueryMix(cluster.get(), this);
}

TEST_F(DistTest, BroadcastJoinMatchesReference) {
  // A huge broadcast threshold forces every join to ship one whole side
  // instead of repartitioning; results must not change.
  ASSERT_OK_AND_ASSIGN(
      auto cluster, Cluster::Make(3, /*broadcast_max_bytes=*/64 * 1024 * 1024));
  const std::string text =
      "join(restrict(r01, k1000 < 100), r06, k100 = right.k100)";
  auto result = cluster->coordinator().Execute(text);
  ASSERT_OK(result.status());
  EXPECT_EQ(SortedRows(result->tuples, result->schema.tuple_width()),
            ReferenceRows(text));
  EXPECT_GT(cluster->coordinator().counters().broadcasts.load(), 0u);
}

TEST_F(DistTest, RepartitionOnlyJoinMatchesReference) {
  // Threshold zero disables broadcast: the same join must repartition.
  ASSERT_OK_AND_ASSIGN(auto cluster,
                       Cluster::Make(3, /*broadcast_max_bytes=*/0));
  const std::string text =
      "join(restrict(r01, k1000 < 100), r06, k100 = right.k100)";
  auto result = cluster->coordinator().Execute(text);
  ASSERT_OK(result.status());
  EXPECT_EQ(SortedRows(result->tuples, result->schema.tuple_width()),
            ReferenceRows(text));
  EXPECT_GT(cluster->coordinator().counters().repartitions.load(), 0u);
  EXPECT_EQ(cluster->coordinator().counters().broadcasts.load(), 0u);
}

TEST_F(DistTest, ConnectionsSurviveManyQueries) {
  // The ping/pong drain must leave worker connections clean between
  // queries — run the whole mix twice over the same coordinator.
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(3));
  for (int round = 0; round < 2; ++round) {
    CheckQueryMix(cluster.get(), this);
  }
  EXPECT_EQ(cluster->coordinator().counters().errors.load(), 0u);
}

TEST_F(DistTest, ErrorsSurfaceAndConnectionsRecover) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(2));
  // Unknown relation: planner rejects at analysis.
  EXPECT_FALSE(cluster->coordinator().Execute("restrict(nope, k2 = 0)").ok());
  // Writes are rejected before anything is dispatched.
  auto write = cluster->coordinator().Execute("delete(r01, k2 = 0)");
  EXPECT_FALSE(write.ok());
  EXPECT_TRUE(write.status().IsInvalidArgument());
  // The cluster still answers queries afterwards.
  ASSERT_OK(cluster->coordinator().Connect());
  auto ok = cluster->coordinator().Execute("restrict(r10, k5 = 2)");
  ASSERT_OK(ok.status());
  EXPECT_EQ(SortedRows(ok->tuples, ok->schema.tuple_width()),
            ReferenceRows("restrict(r10, k5 = 2)"));
}

TEST_F(DistTest, FrontServerServesDfw1Clients) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(3));
  FrontServerOptions options;
  options.port = 0;
  FrontServer front(&cluster->coordinator(), options);
  ASSERT_OK(front.Start());
  ASSERT_OK_AND_ASSIGN(auto client,
                       net::Client::Connect("127.0.0.1", front.port()));
  ASSERT_OK(client.Ping());
  const std::string text =
      "join(restrict(r01, k1000 < 100), r06, k100 = right.k100)";
  ASSERT_OK_AND_ASSIGN(net::RemoteResult direct,
                       cluster->coordinator().Execute(text));
  const uint64_t batches = direct.counters["dist.batches_routed"];
  EXPECT_GT(batches, 0u);
  // kStats carries each query's own counters, not the coordinator's
  // running totals.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    ASSERT_OK_AND_ASSIGN(net::RemoteResult result, client.Execute(text));
    EXPECT_EQ(SortedRows(result.tuples, result.schema.tuple_width()),
              ReferenceRows(text));
    EXPECT_EQ(result.counters["dist.batches_routed"], batches);
  }
  client.Close();
  front.Stop();
}

TEST_F(DistTest, FrontServerSurvivesAFailedQuery) {
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Make(2));
  FrontServer front(&cluster->coordinator(), FrontServerOptions{});
  ASSERT_OK(front.Start());
  net::ClientOptions copts;
  copts.max_retries = 1;
  copts.retry_backoff_ms = 1;
  ASSERT_OK_AND_ASSIGN(auto client,
                       net::Client::Connect("127.0.0.1", front.port(), copts));
  // Both front doors map an unknown relation to kInvalidRequest.
  auto unknown = client.Execute("restrict(nope, k1000 < 5)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument()) << unknown.status();
  // k2 is 0 on half the rows: a worker fails the query mid-shuffle.
  EXPECT_FALSE(client.Execute("restrict(r01, k1000 / k2 < 5)").ok());
  // The next query runs on redialed workers, with no Connect() call.
  const std::string text = "restrict(r01, k1000 < 5)";
  ASSERT_OK_AND_ASSIGN(net::RemoteResult result, client.Execute(text));
  EXPECT_EQ(SortedRows(result.tuples, result.schema.tuple_width()),
            ReferenceRows(text));
  client.Close();
  front.Stop();
}

}  // namespace
}  // namespace dist
}  // namespace dfdb
