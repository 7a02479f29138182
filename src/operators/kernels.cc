#include "operators/kernels.h"

#include <cstring>

#include "common/hash.h"
#include "common/macros.h"

namespace dfdb {

namespace {

inline void CountRelaxed(std::atomic<uint64_t>* c, uint64_t n = 1) {
  c->fetch_add(n, std::memory_order_relaxed);
}

/// Hashes the equi-key columns of one tuple, chaining parts through
/// Hash64's seed. CHAR parts hash their right-trimmed bytes so that tuples
/// whose keys differ only in blank padding (which Value::Compare treats as
/// equal) land in the same slot.
template <bool kOuter>
uint64_t HashKey(const std::vector<EquiKey>& keys, const char* t) {
  uint64_t h = 0;
  for (const EquiKey& k : keys) {
    const int32_t off = kOuter ? k.outer_offset : k.inner_offset;
    const int32_t width = kOuter ? k.outer_width : k.inner_width;
    const char* p = t + off;
    const size_t n = k.type == ColumnType::kChar
                         ? TrimmedCharLen(p, width)
                         : static_cast<size_t>(width);
    h = Hash64(p, n, h ^ 0xcbf29ce484222325ULL);
  }
  return h;
}

inline bool KeyPartEquals(const EquiKey& k, const char* a, int32_t a_off,
                          int32_t a_width, const char* b, int32_t b_off,
                          int32_t b_width) {
  const char* pa = a + a_off;
  const char* pb = b + b_off;
  if (k.type == ColumnType::kChar) {
    const size_t na = TrimmedCharLen(pa, a_width);
    const size_t nb = TrimmedCharLen(pb, b_width);
    return na == nb && (na == 0 || std::memcmp(pa, pb, na) == 0);
  }
  // Identical non-double fixed types: raw-byte equality is value equality.
  return std::memcmp(pa, pb, static_cast<size_t>(a_width)) == 0;
}

bool KeysEqualOuterInner(const std::vector<EquiKey>& keys, const char* outer,
                         const char* inner) {
  for (const EquiKey& k : keys) {
    if (!KeyPartEquals(k, outer, k.outer_offset, k.outer_width, inner,
                       k.inner_offset, k.inner_width)) {
      return false;
    }
  }
  return true;
}

bool KeysEqualInnerInner(const std::vector<EquiKey>& keys, const char* a,
                         const char* b) {
  for (const EquiKey& k : keys) {
    if (!KeyPartEquals(k, a, k.inner_offset, k.inner_width, b, k.inner_offset,
                       k.inner_width)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void BuildJoinTable(const CompiledJoinPredicate& pred, const Page& inner,
                    JoinTable* table) {
  const std::vector<EquiKey>& keys = pred.keys();
  const int m = inner.num_tuples();
  size_t nslots = 16;
  while (nslots < static_cast<size_t>(m) * 2) nslots <<= 1;
  const uint64_t mask = nslots - 1;
  table->slot_hash.assign(nslots, 0);
  table->head.assign(nslots, -1);
  table->tail.assign(nslots, -1);
  table->next.assign(static_cast<size_t>(m), -1);
  table->collisions = 0;
  for (int j = 0; j < m; ++j) {
    const char* t = inner.tuple(j).data();
    const uint64_t h = HashKey</*kOuter=*/false>(keys, t);
    size_t s = h & mask;
    for (;;) {
      if (table->head[s] < 0) {
        table->slot_hash[s] = h;
        table->head[s] = j;
        table->tail[s] = j;
        break;
      }
      if (table->slot_hash[s] == h &&
          KeysEqualInnerInner(keys, inner.tuple(table->head[s]).data(), t)) {
        table->next[static_cast<size_t>(table->tail[s])] = j;
        table->tail[s] = j;
        break;
      }
      ++table->collisions;
      s = (s + 1) & mask;
    }
  }
}

void HashOuterKeys(const CompiledJoinPredicate& pred, const Page& outer,
                   JoinScratch* scratch) {
  scratch->outer_hash.clear();
  if (!pred.hash_eligible()) return;
  const int n = outer.num_tuples();
  scratch->outer_hash.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    scratch->outer_hash[static_cast<size_t>(i)] =
        HashKey</*kOuter=*/true>(pred.keys(), outer.tuple(i).data());
  }
}

Status ProbeJoin(const CompiledJoinPredicate& pred, const Page& outer,
                 const JoinScratch& scratch, const Page& inner,
                 const JoinTable* table, PageSink* out, KernelStats* stats,
                 JoinEmit emit) {
  if (table == nullptr) {
    if (stats != nullptr) CountRelaxed(&stats->nested_joins);
    for (int i = 0; i < outer.num_tuples(); ++i) {
      const Slice outer_tuple = outer.tuple(i);
      for (int j = 0; j < inner.num_tuples(); ++j) {
        const Slice inner_tuple = inner.tuple(j);
        if (pred.Matches(outer_tuple.data(), inner_tuple.data())) {
          DFDB_RETURN_IF_ERROR(
              EmitJoined(out, emit, outer_tuple, inner_tuple));
        }
      }
    }
    return Status::OK();
  }
  if (scratch.outer_hash.size() != static_cast<size_t>(outer.num_tuples())) {
    return Status::Internal("outer page keys were not hashed for this probe");
  }
  if (stats != nullptr) {
    CountRelaxed(&stats->hash_joins);
    if (table->collisions != 0) {
      CountRelaxed(&stats->hash_build_collisions, table->collisions);
    }
  }
  // One lookup per outer tuple, then walk the key's chain.
  const std::vector<EquiKey>& keys = pred.keys();
  const uint64_t mask = table->head.size() - 1;
  for (int i = 0; i < outer.num_tuples(); ++i) {
    const Slice outer_tuple = outer.tuple(i);
    const char* ot = outer_tuple.data();
    const uint64_t h = scratch.outer_hash[static_cast<size_t>(i)];
    size_t s = h & mask;
    for (;;) {
      const int32_t head = table->head[s];
      if (head < 0) break;  // No inner tuple has this key.
      if (table->slot_hash[s] == h &&
          KeysEqualOuterInner(keys, ot, inner.tuple(head).data())) {
        for (int32_t j = head; j >= 0;
             j = table->next[static_cast<size_t>(j)]) {
          const Slice inner_tuple = inner.tuple(j);
          if (pred.ResidualMatches(ot, inner_tuple.data())) {
            DFDB_RETURN_IF_ERROR(
                EmitJoined(out, emit, outer_tuple, inner_tuple));
          }
        }
        break;
      }
      s = (s + 1) & mask;
    }
  }
  return Status::OK();
}

namespace {

/// Runs the strided per-tuple loop of a restrict with \p eval inlined.
/// Walking raw page bytes (base + i*stride) instead of re-constructing a
/// Slice per tuple keeps the loop down to load/compare/branch.
template <typename Eval>
Status RestrictLoop(const Page& in, PageSink* out, Eval eval) {
  const int n = in.num_tuples();
  const size_t stride = static_cast<size_t>(in.tuple_width());
  const char* base = n > 0 ? in.tuple(0).data() : nullptr;
  for (int i = 0; i < n; ++i) {
    const char* t = base + static_cast<size_t>(i) * stride;
    if (eval(t)) {
      DFDB_RETURN_IF_ERROR(out->Emit(Slice(t, stride)));
    }
  }
  return Status::OK();
}

template <typename Eval>
uint64_t CountLoop(const Page& in, Eval eval) {
  const int n = in.num_tuples();
  const size_t stride = static_cast<size_t>(in.tuple_width());
  const char* base = n > 0 ? in.tuple(0).data() : nullptr;
  uint64_t count = 0;
  for (int i = 0; i < n; ++i) {
    if (eval(base + static_cast<size_t>(i) * stride)) ++count;
  }
  return count;
}

/// Invokes \p body with a monomorphic evaluator for the single compare
/// \p c: the kind dispatch and the constant/offset loads happen once per
/// page here, so the per-tuple work the compiler sees inside the loop is
/// just load + compare.
template <typename Body>
auto WithCompareEval(const ColCompare& c, Body body) {
  using expr_detail::ApplyCmp;
  using expr_detail::Cmp3F;
  using expr_detail::Cmp3I;
  using expr_detail::Cmp3S;
  using expr_detail::LoadF64;
  using expr_detail::LoadI32;
  using expr_detail::LoadI64;
  using expr_detail::TrimmedLen;
  const CompareOp op = c.op;
  const int32_t off = c.offset;
  switch (c.kind) {
    case ColCompare::Kind::kI32I: {
      const int64_t k = c.const_i;
      return body(
          [=](const char* t) { return ApplyCmp(op, Cmp3I(LoadI32(t, off), k)); });
    }
    case ColCompare::Kind::kI64I: {
      const int64_t k = c.const_i;
      return body(
          [=](const char* t) { return ApplyCmp(op, Cmp3I(LoadI64(t, off), k)); });
    }
    case ColCompare::Kind::kI32F: {
      const double k = c.const_f;
      return body([=](const char* t) {
        return ApplyCmp(op, Cmp3F(static_cast<double>(LoadI32(t, off)), k));
      });
    }
    case ColCompare::Kind::kI64F: {
      const double k = c.const_f;
      return body([=](const char* t) {
        return ApplyCmp(op, Cmp3F(static_cast<double>(LoadI64(t, off)), k));
      });
    }
    case ColCompare::Kind::kF64F: {
      const double k = c.const_f;
      return body(
          [=](const char* t) { return ApplyCmp(op, Cmp3F(LoadF64(t, off), k)); });
    }
    case ColCompare::Kind::kStr: {
      const int32_t w = c.width;
      const char* s = c.const_s.data();
      const uint32_t sn = static_cast<uint32_t>(c.const_s.size());
      return body([=](const char* t) {
        const char* p = t + off;
        return ApplyCmp(op, Cmp3S(p, TrimmedLen(p, w), s, sn));
      });
    }
  }
  return body([](const char*) { return false; });  // Unreachable.
}

}  // namespace

Status RestrictPage(const Schema& schema, const Expr& pred, const Page& in,
                    PageSink* out) {
  for (int i = 0; i < in.num_tuples(); ++i) {
    TupleView view(&schema, in.tuple(i));
    DFDB_ASSIGN_OR_RETURN(bool keep, pred.EvalBool(view, nullptr));
    if (keep) {
      DFDB_RETURN_IF_ERROR(out->Emit(in.tuple(i)));
    }
  }
  return Status::OK();
}

Status RestrictPage(const CompiledPredicate& pred, const Page& in,
                    PageSink* out, KernelStats* stats) {
  if (stats != nullptr) CountRelaxed(&stats->compiled_pages);
  switch (pred.shape()) {
    case CompiledPredicate::Shape::kSingleCompare:
      return WithCompareEval(pred.col_compares()[0], [&](auto eval) {
        return RestrictLoop(in, out, eval);
      });
    case CompiledPredicate::Shape::kConjunction: {
      const std::vector<ColCompare>& cmps = pred.col_compares();
      return RestrictLoop(in, out, [&](const char* t) {
        for (const ColCompare& c : cmps) {
          if (!expr_detail::EvalColCompare(c, t)) return false;
        }
        return true;
      });
    }
    case CompiledPredicate::Shape::kGeneric:
      break;
  }
  return RestrictLoop(in, out,
                      [&](const char* t) { return pred.Matches(t, nullptr); });
}

Status ProjectPage(const Schema& schema, const std::vector<int>& indices,
                   const Page& in, PageSink* out) {
  // Merge adjacent source columns into (offset, width) runs once per page;
  // each tuple is then emitted as borrowed ranges, copy-free until the sink.
  struct Run {
    int offset;
    int width;
  };
  std::vector<Run> runs;
  runs.reserve(indices.size());
  for (int i : indices) {
    const int off = schema.offset(i);
    const int width = schema.column(i).width;
    if (!runs.empty() && runs.back().offset + runs.back().width == off) {
      runs.back().width += width;
    } else {
      runs.push_back(Run{off, width});
    }
  }
  std::vector<Slice> parts(runs.size());
  for (int i = 0; i < in.num_tuples(); ++i) {
    const char* t = in.tuple(i).data();
    for (size_t r = 0; r < runs.size(); ++r) {
      parts[r] = Slice(t + runs[r].offset, static_cast<size_t>(runs[r].width));
    }
    DFDB_RETURN_IF_ERROR(out->EmitParts(parts.data(), parts.size()));
  }
  return Status::OK();
}

Status JoinPages(const Schema& outer_schema, const Schema& inner_schema,
                 const Expr& pred, const Page& outer, const Page& inner,
                 PageSink* out, JoinEmit emit) {
  for (int i = 0; i < outer.num_tuples(); ++i) {
    TupleView outer_view(&outer_schema, outer.tuple(i));
    for (int j = 0; j < inner.num_tuples(); ++j) {
      TupleView inner_view(&inner_schema, inner.tuple(j));
      DFDB_ASSIGN_OR_RETURN(bool match, pred.EvalBool(outer_view, &inner_view));
      if (match) {
        DFDB_RETURN_IF_ERROR(
            EmitJoined(out, emit, outer.tuple(i), inner.tuple(j)));
      }
    }
  }
  return Status::OK();
}

Status JoinPages(const CompiledJoinPredicate& pred, const Page& outer,
                 const Page& inner, JoinScratch* scratch, PageSink* out,
                 KernelStats* stats, JoinEmit emit) {
  if (!pred.hash_eligible() || scratch == nullptr) {
    const JoinScratch none;
    return ProbeJoin(pred, outer, none, inner, /*table=*/nullptr, out, stats,
                     emit);
  }
  BuildJoinTable(pred, inner, &scratch->table);
  HashOuterKeys(pred, outer, scratch);
  return ProbeJoin(pred, outer, *scratch, inner, &scratch->table, out, stats,
                   emit);
}

Status CopyPage(const Page& in, PageSink* out) {
  for (int i = 0; i < in.num_tuples(); ++i) {
    DFDB_RETURN_IF_ERROR(out->Emit(in.tuple(i)));
  }
  return Status::OK();
}

StatusOr<uint64_t> CountMatches(const Schema& schema, const Expr& pred,
                                const Page& in, KernelStats* stats) {
  auto compiled = CompiledPredicate::Compile(pred, schema);
  if (compiled.ok()) {
    return CountMatches(*compiled, in, stats);
  }
  if (stats != nullptr) {
    CountRelaxed(&stats->compile_fallbacks);
    CountRelaxed(&stats->interpreted_pages);
  }
  uint64_t n = 0;
  for (int i = 0; i < in.num_tuples(); ++i) {
    TupleView view(&schema, in.tuple(i));
    DFDB_ASSIGN_OR_RETURN(bool keep, pred.EvalBool(view, nullptr));
    if (keep) ++n;
  }
  return n;
}

uint64_t CountMatches(const CompiledPredicate& pred, const Page& in,
                      KernelStats* stats) {
  if (stats != nullptr) CountRelaxed(&stats->compiled_pages);
  switch (pred.shape()) {
    case CompiledPredicate::Shape::kSingleCompare:
      return WithCompareEval(pred.col_compares()[0],
                             [&](auto eval) { return CountLoop(in, eval); });
    case CompiledPredicate::Shape::kConjunction: {
      const std::vector<ColCompare>& cmps = pred.col_compares();
      return CountLoop(in, [&](const char* t) {
        for (const ColCompare& c : cmps) {
          if (!expr_detail::EvalColCompare(c, t)) return false;
        }
        return true;
      });
    }
    case CompiledPredicate::Shape::kGeneric:
      break;
  }
  return CountLoop(in, [&](const char* t) { return pred.Matches(t, nullptr); });
}

}  // namespace dfdb
