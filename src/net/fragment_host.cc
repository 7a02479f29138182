/// \file fragment_host.cc

#include "net/fragment_host.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "operators/exchange.h"

namespace dfdb {
namespace net {

namespace {

void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

void Reply(FragmentHost::OutQueue* out, uint32_t request_id, WireError code,
           std::string message) {
  out->push_back(
      EncodeErrorFrame(request_id, ErrorMessage{code, std::move(message)}));
}

}  // namespace

std::string EncodeResultStatsFrame(uint32_t request_id,
                                   const QueryResult& result) {
  StatsMessage stats;
  stats.total_rows = result.num_tuples();
  stats.seconds = result.stats().wall_seconds;
  obs::MetricsRegistry registry;
  RegisterMetrics(result.stats(), &registry);
  stats.counters = registry.counters();
  return EncodeStatsFrame(request_id, stats);
}

FragmentHost::FragmentHost(StorageEngine* storage, uint32_t max_frame_bytes,
                           ServerCounters* counters)
    : storage_(storage), max_frame_bytes_(max_frame_bytes),
      counters_(counters) {}

FragmentHost::~FragmentHost() {
  while (!fragments_.empty()) Teardown(fragments_.begin()->first);
}

std::optional<ReadyFragment> FragmentHost::OnFragment(uint64_t conn,
                                                      uint32_t request_id,
                                                      FragmentRequest spec,
                                                      OutQueue* out) {
  const FragmentKey key(conn, spec.output_exchange_id);
  if (fragments_.count(key) != 0) {
    Bump(counters_->protocol_errors);
    Reply(out, request_id, WireError::kInvalidRequest,
          StrFormat("duplicate fragment exchange id %u",
                    spec.output_exchange_id));
    return std::nullopt;
  }
  Bump(counters_->fragments);
  Fragment& frag = fragments_[key];
  frag.request_id = request_id;
  frag.out_credits = spec.output_credits;
  frag.spec = std::move(spec);
  Status opened = [&]() -> Status {
    for (const FragmentInput& input : frag.spec.inputs) {
      const FragmentKey in_key(conn, input.exchange_id);
      if (inputs_.count(in_key) != 0) {
        return Status::InvalidArgument(
            StrFormat("duplicate input exchange id %u", input.exchange_id));
      }
      DFDB_ASSIGN_OR_RETURN(RelationId id, storage_->CreateRelation(
                                               input.relation, input.schema));
      frag.temp_relations.push_back(input.relation);
      DFDB_ASSIGN_OR_RETURN(HeapFile * heap, storage_->GetHeapFile(id));
      inputs_.emplace(in_key, Input{key, heap});
    }
    return Status::OK();
  }();
  if (!opened.ok()) {
    Fail(key, opened, out);
    return std::nullopt;
  }
  frag.inputs_pending = static_cast<int>(frag.spec.inputs.size());
  if (frag.inputs_pending == 0) return Ready(key, out);
  return std::nullopt;
}

void FragmentHost::OnExchangeData(uint64_t conn, uint32_t request_id,
                                  const ExchangeBatch& batch, OutQueue* out) {
  Input* in = OpenInput(conn, request_id, batch.exchange_id,
                        "exchange data after EOF", out);
  if (in == nullptr) return;
  const int width = in->heap->schema().tuple_width();
  if (batch.tuple_width != static_cast<uint32_t>(width)) {
    Bump(counters_->protocol_errors);
    Reply(out, request_id, WireError::kInvalidRequest,
          StrFormat("exchange tuple width %u != schema width %d",
                    batch.tuple_width, width));
    return;
  }
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    Status s = in->heap->AppendEncoded(
        Slice(batch.tuples.data() + static_cast<size_t>(i) * batch.tuple_width,
              batch.tuple_width));
    if (!s.ok()) {
      Fail(in->fragment, s, out);
      return;
    }
  }
  Bump(counters_->exchange_batches_in);
  Bump(counters_->exchange_bytes_in, batch.tuples.size());
  // The batch is consumed before the next frame is read, so its credit
  // goes straight back: the sender's credits are the flow control.
  Bump(counters_->exchange_credits_granted);
  out->push_back(EncodeExchangeCreditFrame(
      request_id, ExchangeCreditMessage{batch.exchange_id, 1}));
}

std::optional<ReadyFragment> FragmentHost::OnExchangeEof(
    uint64_t conn, uint32_t request_id, const ExchangeEofMessage& eof,
    OutQueue* out) {
  Input* in = OpenInput(conn, request_id, eof.exchange_id,
                        "duplicate exchange EOF", out);
  if (in == nullptr) return std::nullopt;
  in->eof = true;
  Bump(counters_->exchange_eofs);
  if (--fragments_.at(in->fragment).inputs_pending == 0) {
    return Ready(in->fragment, out);
  }
  return std::nullopt;
}

void FragmentHost::OnExchangeCredit(uint64_t conn,
                                    const ExchangeCreditMessage& credit,
                                    OutQueue* out) {
  const FragmentKey key(conn, credit.exchange_id);
  auto it = fragments_.find(key);
  if (it == fragments_.end()) {
    // A grant-after-consume credit inherently races with the fragment's
    // terminal frame: the coordinator may credit a batch after this side
    // already sent everything and tore the fragment down. Count it, don't
    // error — credits are advisory.
    Bump(counters_->exchange_unknown);
    return;
  }
  it->second.out_credits += credit.credits;
  Flush(key, out);
}

void FragmentHost::Complete(FragmentKey key,
                            const StatusOr<QueryResult>& result,
                            OutQueue* out) {
  if (out == nullptr) {
    Teardown(key);
    return;
  }
  Fragment& frag = fragments_.at(key);
  Status staged = result.ok() ? Stage(&frag, *result) : result.status();
  if (!staged.ok()) {
    Fail(key, staged, out);
    return;
  }
  frag.phase = Fragment::Phase::kStreaming;
  Flush(key, out);
}

void FragmentHost::DropConnection(uint64_t conn) {
  std::vector<FragmentKey> dead;
  for (const auto& [key, frag] : fragments_) {
    if (key.first == conn && frag.phase != Fragment::Phase::kRunning) {
      dead.push_back(key);
    }
  }
  for (const FragmentKey& key : dead) Teardown(key);
}

std::optional<ReadyFragment> FragmentHost::Ready(FragmentKey key,
                                                 OutQueue* out) {
  Fragment& frag = fragments_.at(key);
  frag.phase = Fragment::Phase::kRunning;
  for (const std::string& rel : frag.temp_relations) {
    Status s = storage_->SyncStats(rel);
    if (!s.ok()) {
      Fail(key, s, out);
      return std::nullopt;
    }
  }
  return ReadyFragment{key, frag.request_id, frag.spec.text,
                       frag.spec.deadline_ms};
}

void FragmentHost::Fail(FragmentKey key, const Status& status, OutQueue* out) {
  Bump(counters_->fragment_errors);
  Reply(out, fragments_.at(key).request_id, StatusToWireError(status),
        status.ToString());
  Teardown(key);
}

FragmentHost::Input* FragmentHost::OpenInput(uint64_t conn,
                                             uint32_t request_id,
                                             uint32_t exchange_id,
                                             const char* after_eof,
                                             OutQueue* out) {
  auto it = inputs_.find({conn, exchange_id});
  if (it == inputs_.end()) {
    Bump(counters_->exchange_unknown);
    Reply(out, request_id, WireError::kInvalidRequest,
          StrFormat("no open exchange input %u", exchange_id));
    return nullptr;
  }
  if (it->second.eof) {
    Bump(counters_->protocol_errors);
    Reply(out, request_id, WireError::kInvalidRequest, after_eof);
    return nullptr;
  }
  return &it->second;
}

Status FragmentHost::Stage(Fragment* frag, const QueryResult& result) {
  const Schema& schema = result.schema();
  const int width = schema.tuple_width();
  const uint32_t exchange_id = frag->spec.output_exchange_id;
  const size_t batch_bytes = std::min<size_t>(
      64 * 1024, std::max<uint32_t>(1024, max_frame_bytes_ / 2));
  auto emit = [&](int partition, uint32_t num_tuples, std::string bytes) {
    Bump(counters_->exchange_bytes_out, bytes.size());
    ExchangeBatch out;
    out.exchange_id = exchange_id;
    out.partition_id = static_cast<uint32_t>(partition);
    out.num_tuples = num_tuples;
    out.tuple_width = static_cast<uint32_t>(width);
    out.tuples = std::move(bytes);
    frag->pending.push_back(EncodeExchangeDataFrame(frag->request_id, out));
  };
  ExchangeKey key;
  int partitions = static_cast<int>(frag->spec.output_partitions);
  ExchangePartitioner::Emit route = emit;
  if (frag->spec.output_mode == ExchangeMode::kPartition) {
    std::vector<int> cols(frag->spec.output_key_cols.begin(),
                          frag->spec.output_key_cols.end());
    DFDB_ASSIGN_OR_RETURN(key, ExchangeKey::FromColumns(schema, cols));
    if (key.empty()) {
      return Status::InvalidArgument(
          "partition-mode fragment without key columns");
    }
  } else if (frag->spec.output_mode == ExchangeMode::kBroadcast) {
    // Batch once, then duplicate every batch to all consumers.
    const int fanout = partitions;
    partitions = 1;
    route = [&, fanout](int, uint32_t num_tuples, std::string bytes) {
      for (int p = 0; p < fanout; ++p) {
        Bump(counters_->exchange_broadcast_batches);
        emit(p, num_tuples, bytes);
      }
    };
  } else {
    partitions = 1;  // kGather: one consumer stream.
  }
  ExchangePartitioner partitioner(partitions, std::move(key), width,
                                  batch_bytes, route);
  for (const PagePtr& page : result.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      partitioner.Add(page->tuple(i));
    }
  }
  partitioner.Flush();
  frag->terminal = EncodeResultStatsFrame(frag->request_id, result);
  return Status::OK();
}

void FragmentHost::Flush(FragmentKey key, OutQueue* out) {
  Fragment& frag = fragments_.at(key);
  if (frag.phase != Fragment::Phase::kStreaming) return;
  while (frag.out_credits > 0 && !frag.pending.empty()) {
    Bump(counters_->exchange_batches_out);
    out->push_back(std::move(frag.pending.front()));
    frag.pending.pop_front();
    --frag.out_credits;
  }
  if (!frag.pending.empty()) {
    Bump(counters_->exchange_credit_stalls);
    return;
  }
  out->push_back(std::move(frag.terminal));
  Teardown(key);
}

void FragmentHost::Teardown(FragmentKey key) {
  auto it = fragments_.find(key);
  if (it == fragments_.end()) return;
  for (const std::string& rel : it->second.temp_relations) {
    (void)storage_->DropRelation(rel);
  }
  std::erase_if(inputs_,
                [&](const auto& in) { return in.second.fragment == key; });
  fragments_.erase(it);
}

}  // namespace net
}  // namespace dfdb
