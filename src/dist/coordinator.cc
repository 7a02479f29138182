#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "ra/parser.h"

namespace dfdb {
namespace dist {

namespace {

/// (worker, exchange-or-request id) → one map key.
uint64_t Key(int worker, uint32_t id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(worker)) << 32) | id;
}

}  // namespace

/// \brief Per-query routing state shared by the reader/sender threads.
struct Coordinator::Run {
  struct StreamExec {
    net::ExchangeMode mode = net::ExchangeMode::kGather;
    int producers_remaining = 0;
    bool is_root = false;
    std::vector<int> consumer_workers;
  };

  /// One frame queued toward a worker. Data frames gate on that worker's
  /// input credits for `gate_exchange`; after a gated send the producer
  /// that originated the batch gets one credit back (`grant_*`).
  struct Outbound {
    std::string frame;
    uint32_t gate_exchange = 0;
    int grant_worker = -1;
    uint32_t grant_exchange = 0;
    uint32_t grant_request_id = 0;
  };

  struct Chan {
    std::deque<Outbound> q;
    bool stop = false;
    std::thread sender;
    std::thread reader;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Chan>> chans;
  std::map<uint32_t, StreamExec> streams;
  /// Remaining input credits per (consumer worker, exchange).
  std::map<uint64_t, uint32_t> input_credits;
  /// Request id of the fragment instance per (worker, output exchange) —
  /// the address output-credit grants are stamped with.
  std::map<uint64_t, uint32_t> frag_rid;
  /// (worker, request id) → output exchange, for terminal-frame dispatch.
  std::map<uint64_t, uint32_t> rid_to_stream;

  int terminals_remaining = 0;
  int root_remaining = 0;
  uint32_t root_width = 0;
  /// Join page pairs (engine.kernel.hash_joins + nested_joins) summed from
  /// fragment terminals, per worker. The hash partitioning fixes every
  /// page a worker's joins see, and so this count: it is the work measure
  /// behind the bench's compute-speedup gauge (max over workers = the
  /// critical path).
  std::vector<uint64_t> worker_page_pairs;
  std::string result_tuples;
  uint64_t result_rows = 0;
  uint64_t bytes = 0;
  uint64_t batches = 0;
  uint64_t credit_waits = 0;
  bool failed = false;
  Status error = Status::OK();

  void Fail(Status s) {
    if (!failed) {
      failed = true;
      error = std::move(s);
    }
    cv.notify_all();
  }

  bool Finished() const {
    return failed || (root_remaining == 0 && terminals_remaining == 0);
  }
};

Coordinator::Coordinator(const Catalog* catalog, CoordinatorOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  DFDB_CHECK(catalog != nullptr);
  workers_.resize(options_.workers.size());
}

Coordinator::~Coordinator() = default;

Status Coordinator::Connect() {
  std::lock_guard<std::mutex> lock(mu_);
  return DialClosedWorkers();
}

Status Coordinator::DialClosedWorkers() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("coordinator has no workers");
  }
  for (size_t i = 0; i < options_.workers.size(); ++i) {
    if (workers_[i].connected()) continue;
    DFDB_ASSIGN_OR_RETURN(
        workers_[i],
        net::Client::Connect(options_.workers[i].host,
                             options_.workers[i].port, options_.client));
  }
  return Status::OK();
}

void Coordinator::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  registry->Set("dist.workers", static_cast<uint64_t>(num_workers()));
  const DistStats stats = counters_.Snapshot();
  ExportCounters(registry, "dist.", stats);
  // The outer-ring bandwidth gauge: shuffled payload over routed wall time,
  // in megabits/s (matching the simulator's Fig 4.2 ring measurement).
  const uint64_t micros = stats.shuffle_micros;
  const uint64_t mbit_s =
      micros == 0 ? 0
                  : static_cast<uint64_t>(
                        (stats.bytes_shuffled * 8.0 / 1e6) /
                        (static_cast<double>(micros) / 1e6));
  registry->Set("dist.shuffle.mbit_s", mbit_s);
}

StatusOr<net::RemoteResult> Coordinator::Execute(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.queries.fetch_add(1, std::memory_order_relaxed);
  auto fail = [&](Status s) -> Status {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return s;
  };
  Status dialed = DialClosedWorkers();
  if (!dialed.ok()) return fail(dialed);
  auto parsed = ParseQuery(text);
  if (!parsed.ok()) return fail(parsed.status());

  FragmentPlannerOptions popt;
  popt.num_workers = num_workers();
  popt.partition_column = options_.partition_column;
  popt.broadcast_max_bytes = options_.broadcast_max_bytes;
  popt.deadline_ms = options_.deadline_ms;
  popt.first_exchange_id = next_exchange_id_;
  FragmentPlanner planner(catalog_, popt);
  auto plan = planner.Plan(parsed->get());
  if (!plan.ok()) return fail(plan.status());
  next_exchange_id_ = plan->next_exchange_id;
  return RunPlan(*plan);
}

StatusOr<net::RemoteResult> Coordinator::RunPlan(const DistributedPlan& plan) {
  const int W = num_workers();
  const auto t0 = std::chrono::steady_clock::now();
  Run run;
  run.worker_page_pairs.assign(static_cast<size_t>(W), 0);
  run.chans.reserve(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    run.chans.push_back(std::make_unique<Run::Chan>());
  }

  // Routing tables: producers per stream, declared consumers per stream,
  // input credit budgets.
  for (const StreamRoute& route : plan.streams) {
    Run::StreamExec se;
    se.mode = route.mode;
    const FragmentUnit& producer =
        plan.fragments[static_cast<size_t>(route.producer_fragment)];
    se.producers_remaining = producer.singleton ? 1 : W;
    se.is_root = route.exchange_id == plan.root_exchange_id;
    run.streams.emplace(route.exchange_id, std::move(se));
    switch (route.mode) {
      case net::ExchangeMode::kPartition:
        counters_.repartitions.fetch_add(1, std::memory_order_relaxed);
        break;
      case net::ExchangeMode::kBroadcast:
        counters_.broadcasts.fetch_add(1, std::memory_order_relaxed);
        break;
      case net::ExchangeMode::kGather:
        if (route.exchange_id != plan.root_exchange_id) {
          counters_.gathers.fetch_add(1, std::memory_order_relaxed);
        }
        break;
    }
  }
  for (const FragmentUnit& frag : plan.fragments) {
    const int first = 0;
    const int last = frag.singleton ? 1 : W;
    for (int w = first; w < last; ++w) {
      for (const net::FragmentInput& input : frag.request.inputs) {
        auto it = run.streams.find(input.exchange_id);
        if (it == run.streams.end()) {
          return Status::Internal("fragment references unknown exchange");
        }
        it->second.consumer_workers.push_back(w);
        run.input_credits[Key(w, input.exchange_id)] =
            net::kExchangeInitialCredits;
      }
      run.terminals_remaining++;
    }
  }
  auto root_it = run.streams.find(plan.root_exchange_id);
  if (root_it == run.streams.end()) {
    return Status::Internal("plan has no root stream");
  }
  run.root_remaining = root_it->second.producers_remaining;
  run.root_width = static_cast<uint32_t>(plan.result_schema.tuple_width());

  // Dispatch every fragment before routing any data: workers must know an
  // exchange id before batches can land on it.
  for (const FragmentUnit& frag : plan.fragments) {
    const int last = frag.singleton ? 1 : W;
    for (int w = 0; w < last; ++w) {
      const uint32_t rid = workers_[static_cast<size_t>(w)].AllocRequestId();
      run.rid_to_stream[Key(w, rid)] = frag.request.output_exchange_id;
      run.frag_rid[Key(w, frag.request.output_exchange_id)] = rid;
      Status s = workers_[static_cast<size_t>(w)].SendFrame(
          net::EncodeFragmentFrame(rid, frag.request));
      if (!s.ok()) {
        for (net::Client& c : workers_) c.Close();
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return s;
      }
      counters_.fragments_dispatched.fetch_add(1, std::memory_order_relaxed);
    }
  }

  auto sender_loop = [&](int w) {
    Run::Chan& chan = *run.chans[static_cast<size_t>(w)];
    net::Client& client = workers_[static_cast<size_t>(w)];
    for (;;) {
      std::unique_lock<std::mutex> lk(run.mu);
      run.cv.wait(lk, [&] { return chan.stop || !chan.q.empty(); });
      if (chan.q.empty() || (chan.stop && run.failed)) break;
      Run::Outbound item = std::move(chan.q.front());
      chan.q.pop_front();
      if (item.gate_exchange != 0) {
        uint32_t& avail = run.input_credits[Key(w, item.gate_exchange)];
        if (avail == 0) {
          run.credit_waits++;
          run.cv.wait(lk, [&] {
            return run.failed ||
                   run.input_credits[Key(w, item.gate_exchange)] > 0;
          });
          if (run.failed) break;
        }
        run.input_credits[Key(w, item.gate_exchange)]--;
      }
      lk.unlock();
      Status s = client.SendFrame(item.frame);
      if (!s.ok()) {
        std::lock_guard<std::mutex> g(run.mu);
        run.Fail(std::move(s));
        break;
      }
      if (item.grant_worker >= 0) {
        Run::Outbound grant;
        grant.frame = net::EncodeExchangeCreditFrame(
            item.grant_request_id,
            net::ExchangeCreditMessage{item.grant_exchange, 1});
        std::lock_guard<std::mutex> g(run.mu);
        run.chans[static_cast<size_t>(item.grant_worker)]->q.push_back(
            std::move(grant));
        run.cv.notify_all();
      }
      {
        // Queue drained? The control thread waits on that to stop us.
        std::lock_guard<std::mutex> g(run.mu);
        if (chan.q.empty()) run.cv.notify_all();
      }
    }
  };

  auto reader_loop = [&](int w) {
    net::Client& client = workers_[static_cast<size_t>(w)];
    for (;;) {
      auto frame = client.ReadAnyFrame();
      if (!frame.ok()) {
        std::lock_guard<std::mutex> g(run.mu);
        if (!run.Finished()) run.Fail(frame.status());
        return;
      }
      const uint32_t rid = frame->header.request_id;
      switch (static_cast<net::Opcode>(frame->header.opcode)) {
        case net::Opcode::kPong:
          return;  // Drain marker: everything before it was processed.
        case net::Opcode::kExchangeCredit: {
          auto credit = net::DecodeExchangeCredit(Slice(frame->body));
          if (!credit.ok()) {
            std::lock_guard<std::mutex> g(run.mu);
            run.Fail(credit.status());
            return;
          }
          std::lock_guard<std::mutex> g(run.mu);
          run.input_credits[Key(w, credit->exchange_id)] += credit->credits;
          run.cv.notify_all();
          break;
        }
        case net::Opcode::kExchangeData: {
          auto batch = net::DecodeExchangeData(Slice(frame->body));
          if (!batch.ok()) {
            std::lock_guard<std::mutex> g(run.mu);
            run.Fail(batch.status());
            return;
          }
          std::lock_guard<std::mutex> g(run.mu);
          auto it = run.streams.find(batch->exchange_id);
          if (it == run.streams.end()) {
            run.Fail(Status::Internal(StrFormat(
                "worker sent batch for unknown exchange %u",
                batch->exchange_id)));
            return;
          }
          run.bytes += batch->tuples.size();
          run.batches++;
          const uint32_t grant_rid =
              run.frag_rid[Key(w, batch->exchange_id)];
          if (it->second.is_root) {
            if (batch->tuple_width != run.root_width) {
              run.Fail(Status::Internal("result tuple width mismatch"));
              return;
            }
            run.result_tuples.append(batch->tuples);
            run.result_rows += batch->num_tuples;
          } else {
            const int target = static_cast<int>(batch->partition_id);
            if (target < 0 || target >= W) {
              run.Fail(Status::Internal("batch routed to bad partition"));
              return;
            }
            Run::Outbound out;
            out.gate_exchange = batch->exchange_id;
            out.grant_worker = w;
            out.grant_exchange = batch->exchange_id;
            out.grant_request_id = grant_rid;
            out.frame = net::EncodeExchangeDataFrame(grant_rid, *batch);
            run.chans[static_cast<size_t>(target)]->q.push_back(
                std::move(out));
            run.cv.notify_all();
            break;
          }
          // Root batch consumed on the spot: credit the producer directly.
          Run::Outbound grant;
          grant.frame = net::EncodeExchangeCreditFrame(
              grant_rid,
              net::ExchangeCreditMessage{batch->exchange_id, 1});
          run.chans[static_cast<size_t>(w)]->q.push_back(std::move(grant));
          run.cv.notify_all();
          break;
        }
        case net::Opcode::kStats: {
          auto stats = net::DecodeStats(Slice(frame->body));
          std::lock_guard<std::mutex> g(run.mu);
          auto rit = run.rid_to_stream.find(Key(w, rid));
          if (rit == run.rid_to_stream.end()) break;  // Not a fragment.
          if (stats.ok()) {
            for (const char* pairs :
                 {"engine.kernel.hash_joins", "engine.kernel.nested_joins"}) {
              auto pit = stats->counters.find(pairs);
              if (pit != stats->counters.end()) {
                run.worker_page_pairs[static_cast<size_t>(w)] += pit->second;
              }
            }
          }
          auto sit = run.streams.find(rit->second);
          if (sit == run.streams.end()) break;
          Run::StreamExec& se = sit->second;
          se.producers_remaining--;
          run.terminals_remaining--;
          if (se.producers_remaining == 0) {
            if (se.is_root) {
              // Root complete; nothing downstream to EOF.
            } else {
              for (int t : se.consumer_workers) {
                Run::Outbound eof;
                eof.frame = net::EncodeExchangeEofFrame(
                    0, net::ExchangeEofMessage{rit->second});
                run.chans[static_cast<size_t>(t)]->q.push_back(
                    std::move(eof));
              }
            }
          }
          if (se.is_root) run.root_remaining--;
          run.cv.notify_all();
          break;
        }
        case net::Opcode::kError: {
          auto err = net::DecodeError(Slice(frame->body));
          std::lock_guard<std::mutex> g(run.mu);
          run.Fail(Status::Internal(
              err.ok() ? StrFormat("worker %d: %s", w, err->message.c_str())
                       : "worker reported an undecodable error"));
          return;
        }
        default:
          break;  // kSchema/kRows never appear on the fragment path.
      }
    }
  };

  for (int w = 0; w < W; ++w) {
    run.chans[static_cast<size_t>(w)]->sender =
        std::thread(sender_loop, w);
    run.chans[static_cast<size_t>(w)]->reader =
        std::thread(reader_loop, w);
  }

  // Wait for completion (all terminals in), then for the grant/EOF queues
  // to drain, then stop the senders.
  {
    std::unique_lock<std::mutex> lk(run.mu);
    run.cv.wait(lk, [&] { return run.Finished(); });
    if (!run.failed) {
      run.cv.wait(lk, [&] {
        if (run.failed) return true;
        for (const auto& chan : run.chans) {
          if (!chan->q.empty()) return false;
        }
        return true;
      });
    }
    for (const auto& chan : run.chans) chan->stop = true;
    run.cv.notify_all();
  }
  for (const auto& chan : run.chans) chan->sender.join();

  // Readers drain until the pong marker (ordered after every pending
  // server frame); on failure, hard-close instead so they unblock.
  bool failed_snapshot;
  {
    std::lock_guard<std::mutex> g(run.mu);
    failed_snapshot = run.failed;
  }
  if (failed_snapshot) {
    for (net::Client& c : workers_) c.Close();
  } else {
    for (int w = 0; w < W; ++w) {
      net::Client& c = workers_[static_cast<size_t>(w)];
      Status s = c.SendFrame(net::EncodePingFrame(c.AllocRequestId()));
      if (!s.ok()) {
        std::lock_guard<std::mutex> g(run.mu);
        run.Fail(std::move(s));
        c.Close();
      }
    }
  }
  for (const auto& chan : run.chans) chan->reader.join();

  {
    std::lock_guard<std::mutex> g(run.mu);
    if (run.failed) {
      for (net::Client& c : workers_) c.Close();
      counters_.errors.fetch_add(1, std::memory_order_relaxed);
      return run.error;
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  counters_.batches_routed.fetch_add(run.batches, std::memory_order_relaxed);
  counters_.bytes_shuffled.fetch_add(run.bytes, std::memory_order_relaxed);
  counters_.rows_returned.fetch_add(run.result_rows,
                                    std::memory_order_relaxed);
  counters_.credit_waits.fetch_add(run.credit_waits,
                                   std::memory_order_relaxed);
  counters_.shuffle_micros.fetch_add(micros, std::memory_order_relaxed);

  net::RemoteResult result;
  result.schema = plan.result_schema;
  result.tuples = std::move(run.result_tuples);
  result.num_tuples = run.result_rows;
  result.server_seconds = static_cast<double>(micros) / 1e6;
  uint64_t max_pairs = 0;
  for (uint64_t p : run.worker_page_pairs) max_pairs = std::max(max_pairs, p);
  result.counters["dist.batches_routed"] = run.batches;
  result.counters["dist.bytes_shuffled"] = run.bytes;
  result.counters["dist.credit_waits"] = run.credit_waits;
  result.counters["dist.worker_page_pairs_max"] = max_pairs;
  return result;
}

}  // namespace dist
}  // namespace dfdb
