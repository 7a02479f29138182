/// \file page_test.cc
/// \brief Tests for pages, tuple encoding and the page store.

#include "storage/page.h"

#include <gtest/gtest.h>

#include "storage/page_store.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

Schema TwoColSchema() {
  return Schema::CreateOrDie({Column::Int32("a"), Column::Char("s", 6)});
}

std::string Encode(const Schema& schema, int32_t a, const std::string& s) {
  auto t = EncodeTuple(schema, {Value::Int32(a), Value::Char(s)});
  EXPECT_TRUE(t.ok()) << t.status();
  return *t;
}

TEST(PageTest, CreateValidation) {
  EXPECT_FALSE(Page::Create(1, 0, 100).ok());
  EXPECT_FALSE(Page::Create(1, -4, 100).ok());
  EXPECT_FALSE(Page::Create(1, 100, 50).ok());  // Cannot hold one tuple.
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  EXPECT_EQ(p.capacity_tuples(), 10);
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.full());
}

TEST(PageTest, AppendUntilFull) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, schema.tuple_width(), 35));
  EXPECT_EQ(p.capacity_tuples(), 3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(p.Append(Slice(Encode(schema, i, "abc"))));
  }
  EXPECT_TRUE(p.full());
  EXPECT_EQ(p.num_tuples(), 3);
  EXPECT_EQ(p.payload_bytes(), 30);
  EXPECT_TRUE(p.Append(Slice(Encode(schema, 4, "x"))).IsResourceExhausted());
  // Wrong-width tuples rejected.
  EXPECT_TRUE(p.Append(Slice("short")).IsInvalidArgument());
}

TEST(PageTest, AppendPartsMatchesAppend) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page whole, Page::Create(1, schema.tuple_width(), 35));
  ASSERT_OK_AND_ASSIGN(Page parts, Page::Create(1, schema.tuple_width(), 35));
  for (int i = 0; i < 3; ++i) {
    const std::string t = Encode(schema, i, "abc");
    ASSERT_OK(whole.Append(Slice(t)));
    const Slice split[2] = {Slice(t.data(), 4), Slice(t.data() + 4, 6)};
    ASSERT_OK(parts.AppendParts(split, 2));
  }
  ASSERT_EQ(parts.num_tuples(), whole.num_tuples());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parts.tuple(i), whole.tuple(i));
  }
  // Wrong total width and full pages are rejected just like Append.
  const std::string t = Encode(schema, 9, "xyz");
  const Slice bad[1] = {Slice(t.data(), 4)};
  EXPECT_TRUE(parts.AppendParts(bad, 1).IsInvalidArgument());
  const Slice full[1] = {Slice(t)};
  EXPECT_TRUE(parts.AppendParts(full, 1).IsResourceExhausted());
}

TEST(PageTest, TupleRoundTrip) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, schema.tuple_width(), 100));
  ASSERT_OK(p.Append(Slice(Encode(schema, 42, "hello"))));
  TupleView view(&schema, p.tuple(0));
  ASSERT_OK(view.Validate());
  ASSERT_OK_AND_ASSIGN(Value a, view.GetValue(0));
  ASSERT_OK_AND_ASSIGN(Value s, view.GetValue(1));
  EXPECT_EQ(a.as_int32(), 42);
  EXPECT_EQ(s.as_char(), "hello");  // Padding trimmed.
  EXPECT_EQ(view.ToString(), "(42, hello)");
}

TEST(PageTest, FillFromCompressesPartials) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page src, Page::Create(1, schema.tuple_width(), 100));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(src.Append(Slice(Encode(schema, i, "t"))));
  }
  ASSERT_OK_AND_ASSIGN(Page dst, Page::Create(1, schema.tuple_width(), 25));
  ASSERT_OK_AND_ASSIGN(int copied, dst.FillFrom(src, 1));
  EXPECT_EQ(copied, 2);  // Capacity 2, starting from tuple 1.
  TupleView t0(&schema, dst.tuple(0));
  ASSERT_OK_AND_ASSIGN(Value v, t0.GetValue(0));
  EXPECT_EQ(v.as_int32(), 1);
  EXPECT_TRUE(dst.FillFrom(src, 99).status().IsOutOfRange());
}

TEST(PageTest, SerializeRoundTrip) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(7, schema.tuple_width(), 64));
  ASSERT_OK(p.Append(Slice(Encode(schema, 1, "aa"))));
  ASSERT_OK(p.Append(Slice(Encode(schema, 2, "bb"))));
  const std::string wire = p.Serialize();
  ASSERT_OK_AND_ASSIGN(Page q, Page::Deserialize(Slice(wire)));
  EXPECT_EQ(q.relation(), 7u);
  EXPECT_EQ(q.num_tuples(), 2);
  EXPECT_EQ(q.tuple(1).ToString(), p.tuple(1).ToString());
}

TEST(PageTest, DeserializeRejectsCorruption) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(7, schema.tuple_width(), 64));
  ASSERT_OK(p.Append(Slice(Encode(schema, 1, "aa"))));
  std::string wire = p.Serialize();
  EXPECT_TRUE(Page::Deserialize(Slice(wire.data(), 8)).status().IsCorruption());
  std::string truncated = wire.substr(0, wire.size() - 1);
  EXPECT_TRUE(Page::Deserialize(Slice(truncated)).status().IsCorruption());
}

TEST(TupleTest, EncodeValidation) {
  Schema schema = TwoColSchema();
  // Wrong arity.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Int32(1)}).status().IsInvalidArgument());
  // Wrong type.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Double(1), Value::Char("x")})
                  .status()
                  .IsInvalidArgument());
  // Oversized CHAR.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Int32(1), Value::Char("toolongg")})
                  .status()
                  .IsInvalidArgument());
}

TEST(TupleTest, ConcatAndProject) {
  Schema schema = TwoColSchema();
  const std::string a = Encode(schema, 1, "x");
  const std::string b = Encode(schema, 2, "y");
  const std::string joined = ConcatTuples(Slice(a), Slice(b));
  EXPECT_EQ(joined.size(), a.size() + b.size());
  Schema wide = schema.Concat(schema);
  TupleView view(&wide, Slice(joined));
  ASSERT_OK_AND_ASSIGN(Value v2, view.GetValue(2));
  EXPECT_EQ(v2.as_int32(), 2);

  const std::string projected = ProjectTuple(schema, Slice(a), {1});
  EXPECT_EQ(projected.size(), 6u);
  EXPECT_EQ(projected[0], 'x');
}

TEST(TupleTest, CompareColumnFastPaths) {
  Schema schema = TwoColSchema();
  const std::string a = Encode(schema, 5, "mm");
  const std::string b = Encode(schema, 9, "mm");
  TupleView va(&schema, Slice(a));
  TupleView vb(&schema, Slice(b));
  ASSERT_OK_AND_ASSIGN(int c_int, va.CompareColumn(0, vb, 0));
  EXPECT_LT(c_int, 0);
  ASSERT_OK_AND_ASSIGN(int c_str, va.CompareColumn(1, vb, 1));
  EXPECT_EQ(c_str, 0);
  EXPECT_TRUE(va.CompareColumn(7, vb, 0).status().IsOutOfRange());
}

TEST(PageStoreTest, PutGetFree) {
  PageStore store;
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  ASSERT_OK(p.Append(Slice("0123456789")));
  const PageId id = store.Put(SealPage(std::move(p)));
  EXPECT_NE(id, kInvalidPageId);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_OK_AND_ASSIGN(PagePtr got, store.Get(id));
  EXPECT_EQ(got->num_tuples(), 1);
  ASSERT_OK(store.Free(id));
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  EXPECT_TRUE(store.Free(id).IsNotFound());
}

TEST(PageStoreTest, StatsCountBytes) {
  PageStore store;
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  ASSERT_OK(p.Append(Slice("0123456789")));
  const PageId id = store.Put(SealPage(std::move(p)));
  ASSERT_OK_AND_ASSIGN(PagePtr got, store.Get(id));
  (void)got;
  const PageStoreStats stats = store.stats();
  EXPECT_EQ(stats.pages_written, 1u);
  EXPECT_EQ(stats.bytes_written, 10u);
  EXPECT_EQ(stats.pages_read, 1u);
  EXPECT_EQ(stats.bytes_read, 10u);
  store.ResetStats();
  EXPECT_EQ(store.stats().pages_written, 0u);
}

}  // namespace
}  // namespace dfdb
