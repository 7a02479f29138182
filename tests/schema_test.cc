/// \file schema_test.cc
/// \brief Tests for typed values, schemas, and the catalog.

#include "catalog/schema.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Int32(5).type(), ColumnType::kInt32);
  EXPECT_EQ(Value::Int64(5).type(), ColumnType::kInt64);
  EXPECT_EQ(Value::Double(1.5).type(), ColumnType::kDouble);
  EXPECT_EQ(Value::Char("x").type(), ColumnType::kChar);
  EXPECT_EQ(Value::Int32(-3).as_int32(), -3);
  EXPECT_EQ(Value::Char("abc").as_char(), "abc");
}

TEST(ValueTest, CompareAcrossNumericWidths) {
  auto c = Value::Int32(5).Compare(Value::Int64(5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0);
  c = Value::Int32(5).Compare(Value::Double(5.5));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(*c, 0);
  c = Value::Double(7.0).Compare(Value::Int32(6));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(*c, 0);
}

TEST(ValueTest, CompareCharWithNumericFails) {
  EXPECT_FALSE(Value::Char("5").Compare(Value::Int32(5)).ok());
  EXPECT_FALSE(Value::Int32(5).AsNumeric().status().ok() == false);
  EXPECT_FALSE(Value::Char("x").AsNumeric().ok());
}

TEST(ValueTest, EqualNumbersHashEqually) {
  EXPECT_EQ(Value::Int32(41).Hash(), Value::Int64(41).Hash());
  EXPECT_EQ(Value::Int64(41).Hash(), Value::Double(41.0).Hash());
  EXPECT_NE(Value::Int32(41).Hash(), Value::Int32(42).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int32(7).ToString(), "7");
  EXPECT_EQ(Value::Char("hi").ToString(), "hi");
  EXPECT_EQ(Value::Double(0.5).ToString(), "0.5");
}

TEST(SchemaTest, LayoutOffsets) {
  Schema s = Schema::CreateOrDie(
      {Column::Int32("a"), Column::Char("b", 10), Column::Double("c")});
  EXPECT_EQ(s.num_columns(), 3);
  EXPECT_EQ(s.offset(0), 0);
  EXPECT_EQ(s.offset(1), 4);
  EXPECT_EQ(s.offset(2), 14);
  EXPECT_EQ(s.tuple_width(), 22);
}

TEST(SchemaTest, ValidationErrors) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({Column::Int32("")}).ok());
  EXPECT_FALSE(
      Schema::Create({Column::Int32("a"), Column::Int32("a")}).ok());
  EXPECT_FALSE(Schema::Create({Column::Char("c", 0)}).ok());
  Column bad = Column::Int32("x");
  bad.width = 7;
  EXPECT_FALSE(Schema::Create({bad}).ok());
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = Schema::CreateOrDie({Column::Int32("a"), Column::Int32("b")});
  ASSERT_OK_AND_ASSIGN(int idx, s.ColumnIndex("b"));
  EXPECT_EQ(idx, 1);
  EXPECT_TRUE(s.ColumnIndex("zz").status().IsNotFound());
}

TEST(SchemaTest, ProjectSubset) {
  Schema s = Schema::CreateOrDie(
      {Column::Int32("a"), Column::Char("b", 8), Column::Double("c")});
  ASSERT_OK_AND_ASSIGN(Schema p, s.Project({2, 0}));
  EXPECT_EQ(p.num_columns(), 2);
  EXPECT_EQ(p.column(0).name, "c");
  EXPECT_EQ(p.column(1).name, "a");
  EXPECT_EQ(p.tuple_width(), 12);
  // Duplicates get disambiguated.
  ASSERT_OK_AND_ASSIGN(Schema dup, s.Project({0, 0}));
  EXPECT_NE(dup.column(0).name, dup.column(1).name);
  // Out of range rejected.
  EXPECT_FALSE(s.Project({5}).ok());
}

TEST(SchemaTest, ConcatRenamesCollisions) {
  Schema a = Schema::CreateOrDie({Column::Int32("x"), Column::Int32("y")});
  Schema b = Schema::CreateOrDie({Column::Int32("x"), Column::Int32("z")});
  Schema j = a.Concat(b);
  EXPECT_EQ(j.num_columns(), 4);
  EXPECT_EQ(j.column(2).name, "x_r");
  EXPECT_EQ(j.column(3).name, "z");
  EXPECT_EQ(j.tuple_width(), 16);
}

TEST(SchemaTest, DuplicateErrorNamesFirstRepeatInColumnOrder) {
  auto s = Schema::Create({Column::Int32("a"), Column::Int32("b"),
                           Column::Int32("b"), Column::Int32("a")});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsInvalidArgument());
  EXPECT_EQ(s.status().message(), "duplicate column name: b");
  // Columns are checked one at a time: a bad width before the first repeat
  // is the error reported.
  Column bad = Column::Int32("w");
  bad.width = 3;
  s = Schema::Create({Column::Int32("a"), bad, Column::Int32("a")});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().message(),
            "column w: width 3 does not match type INT32");
  s = Schema::Create({Column::Int32("a"), Column::Int32("a"), bad});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().message(), "duplicate column name: a");
}

TEST(SchemaTest, ConcatSuffixChainsPastTakenNames) {
  // A suffixed name that is itself taken (on the left, or by an earlier
  // right column) takes the suffix again.
  Schema left = Schema::CreateOrDie({Column::Int32("a"), Column::Int32("a_r")});
  Schema right = Schema::CreateOrDie(
      {Column::Int32("a"), Column::Int64("a_r"), Column::Char("b", 3)});
  Schema j = left.Concat(right);
  ASSERT_EQ(j.num_columns(), 5);
  EXPECT_EQ(j.column(2).name, "a_r_r");
  EXPECT_EQ(j.column(3).name, "a_r_r_r");
  EXPECT_EQ(j.column(3).type, ColumnType::kInt64);
  EXPECT_EQ(j.column(4).name, "b");
  EXPECT_EQ(j.offset(4), 20);
  EXPECT_EQ(j.tuple_width(), 23);
  EXPECT_EQ(left.Concat(right, "_x").column(2).name, "a_x");
}

TEST(SchemaTest, ProjectDupSuffixChainsPastTakenNames) {
  Schema s = Schema::CreateOrDie(
      {Column::Int32("a"), Column::Int32("a_dup"), Column::Double("b")});
  ASSERT_OK_AND_ASSIGN(Schema p, s.Project({0, 0, 1, 0, 2}));
  ASSERT_EQ(p.num_columns(), 5);
  EXPECT_EQ(p.column(0).name, "a");
  EXPECT_EQ(p.column(1).name, "a_dup");
  EXPECT_EQ(p.column(2).name, "a_dup_dup");
  EXPECT_EQ(p.column(3).name, "a_dup_dup_dup");
  EXPECT_EQ(p.column(4).name, "b");
  EXPECT_EQ(p.tuple_width(), 24);
  auto empty = s.Project({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().message(), "schema must have at least one column");
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  Schema s = Schema::CreateOrDie({Column::Int32("a")});
  ASSERT_OK_AND_ASSIGN(RelationId id, catalog.CreateRelation("t", s));
  EXPECT_NE(id, kInvalidRelationId);
  EXPECT_TRUE(catalog.Exists("t"));
  ASSERT_OK_AND_ASSIGN(RelationMeta meta, catalog.GetRelation("t"));
  EXPECT_EQ(meta.id, id);
  EXPECT_EQ(meta.schema, s);
  ASSERT_OK_AND_ASSIGN(RelationMeta by_id, catalog.GetRelation(id));
  EXPECT_EQ(by_id.name, "t");
  ASSERT_OK(catalog.DropRelation("t"));
  EXPECT_FALSE(catalog.Exists("t"));
  EXPECT_TRUE(catalog.GetRelation("t").status().IsNotFound());
  EXPECT_TRUE(catalog.GetRelation(id).status().IsNotFound());
}

TEST(CatalogTest, DuplicateNamesRejected) {
  Catalog catalog;
  Schema s = Schema::CreateOrDie({Column::Int32("a")});
  ASSERT_OK_AND_ASSIGN(RelationId id, catalog.CreateRelation("t", s));
  (void)id;
  EXPECT_TRUE(catalog.CreateRelation("t", s).status().IsAlreadyExists());
  EXPECT_TRUE(catalog.CreateRelation("", s).status().IsInvalidArgument());
}

TEST(CatalogTest, StatsAndTotals) {
  Catalog catalog;
  Schema s = Schema::CreateOrDie({Column::Char("pad", 100)});
  ASSERT_OK_AND_ASSIGN(RelationId a, catalog.CreateRelation("a", s));
  ASSERT_OK_AND_ASSIGN(RelationId b, catalog.CreateRelation("b", s));
  ASSERT_OK(catalog.UpdateStats(a, 1000, 10));
  ASSERT_OK(catalog.UpdateStats(b, 500, 5));
  EXPECT_EQ(catalog.TotalBytes(), 150000);
  ASSERT_OK_AND_ASSIGN(RelationMeta meta, catalog.GetRelation("a"));
  EXPECT_EQ(meta.tuple_count, 1000u);
  EXPECT_EQ(meta.page_count, 10u);
  EXPECT_TRUE(catalog.UpdateStats(999, 1, 1).IsNotFound());
  EXPECT_EQ(catalog.ListRelations(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dfdb
