// Tests of the §6 optimizer behaviors, asserted through EXPLAIN output and
// execution statistics: length inference, filter pushdown, physical operator
// mapping, the reachability fast path, and probe bindings.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/database.h"

namespace grfusion {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, rank BIGINT);
      INSERT INTO v VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e');
      INSERT INTO e VALUES
        (10, 1, 2, 1.0, 5), (11, 2, 3, 1.0, 50), (12, 3, 4, 1.0, 5),
        (13, 4, 5, 1.0, 80), (14, 1, 3, 2.0, 5), (15, 2, 4, 2.0, 20);
      CREATE DIRECTED GRAPH VIEW g
        VERTEXES (ID = id, name = name) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w, rank = rank) FROM e;
    )sql")
                    .ok());
  }

  std::string MustExplain(const std::string& sql) {
    auto r = session_.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    std::string plan;
    for (const auto& row : r->rows) plan += row[0].AsVarchar() + "\n";
    return plan;
  }

  Database db_;
  Session session_{db_};
};

TEST_F(OptimizerTest, ExplicitLengthInference) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2");
  EXPECT_NE(plan.find("len: [2, 2]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, InequalityLengthInference) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length >= 2 AND P.Length < 5");
  EXPECT_NE(plan.find("len: [2, 4]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ImplicitLengthInferenceFromIndexedPredicate) {
  // Paper §6.1: "PS.Edges[5..*].Att = V" implies min length 6.
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Edges[5..*].rank = 1 AND "
      "P.Length < 9");
  EXPECT_NE(plan.find("len: [6, 8]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ClosedRangeRaisesMinLength) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Edges[1..2].rank < 50 AND "
      "P.Length <= 4");
  EXPECT_NE(plan.find("len: [3, 4]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, LengthInferenceDisabledFallsBack) {
  session_.options().enable_length_inference = false;
  session_.options().fallback_max_length = 7;
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2");
  EXPECT_NE(plan.find("len: [1, 7]"), std::string::npos) << plan;
  // Answers must still be correct (Length enforced as residual).
  auto on = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  session_.options().enable_length_inference = true;
  auto off = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  ASSERT_TRUE(on.ok() && off.ok());
  EXPECT_EQ(on->ScalarValue().AsBigInt(), off->ScalarValue().AsBigInt());
}

TEST_F(OptimizerTest, PushedFiltersAppearInSpec) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2 AND "
      "P.Edges[0..*].rank < 10");
  EXPECT_NE(plan.find("pushed: 1"), std::string::npos) << plan;
  session_.options().enable_filter_pushdown = false;
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2 AND "
      "P.Edges[0..*].rank < 10");
  EXPECT_NE(plan.find("NO-PUSHDOWN"), std::string::npos) << plan;
  session_.options().enable_filter_pushdown = true;
}

TEST_F(OptimizerTest, PushdownReducesWork) {
  auto run = [&](bool pushdown) {
    session_.options().enable_filter_pushdown = pushdown;
    auto r = session_.Execute(
        "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
        "P.Length = 3 AND P.Edges[0..*].rank < 10");
    EXPECT_TRUE(r.ok());
    return session_.last_stats().vertexes_expanded;
  };
  uint64_t with = run(true);
  uint64_t without = run(false);
  session_.options().enable_filter_pushdown = true;
  EXPECT_LE(with, without);
}

TEST_F(OptimizerTest, SumBoundIsPushed) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length <= 3 AND SUM(P.Edges.w) < 3");
  EXPECT_NE(plan.find("sum-bounds: 1"), std::string::npos) << plan;
  // And it is exact: only paths with total weight < 3 survive.
  auto r = session_.Execute(
      "SELECT SUM(P.Edges.w) FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length <= 3 AND SUM(P.Edges.w) < 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& row : r->rows) {
    EXPECT_LT(row[0].AsNumeric(), 3.0);
  }
}

TEST_F(OptimizerTest, HintsSelectPhysicalOperator) {
  EXPECT_NE(MustExplain("SELECT P.PathString FROM g.Paths P HINT(DFS) "
                        "WHERE P.StartVertex.Id = 1 AND P.Length = 2")
                .find("DFScan"),
            std::string::npos);
  EXPECT_NE(MustExplain("SELECT P.PathString FROM g.Paths P HINT(BFS) "
                        "WHERE P.StartVertex.Id = 1 AND P.Length = 2")
                .find("BFScan"),
            std::string::npos);
  EXPECT_NE(MustExplain("SELECT TOP 1 P.Cost FROM g.Paths P "
                        "HINT(SHORTESTPATH(w)) WHERE P.StartVertex.Id = 1 "
                        "AND P.EndVertex.Id = 5")
                .find("SPScan"),
            std::string::npos);
}

TEST_F(OptimizerTest, ReachabilityFastPathConditions) {
  // Eligible: end bound + LIMIT 1 + uniform predicate.
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 AND P.Edges[0..*].rank < 90 LIMIT 1");
  EXPECT_NE(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible: LIMIT > 1.
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 LIMIT 3");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible: positional (non-uniform) predicate.
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 AND P.Edges[1].rank < 90 LIMIT 1");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible when disabled.
  session_.options().enable_reachability_fastpath = false;
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 LIMIT 1");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;
  session_.options().enable_reachability_fastpath = true;
}

TEST_F(OptimizerTest, StartAndEndBindingsExtracted) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM v U, g.Paths P "
      "WHERE U.name = 'a' AND P.StartVertex.Id = U.id AND "
      "P.EndVertex.Id = 5 AND P.Length <= 4");
  EXPECT_NE(plan.find("start: "), std::string::npos) << plan;
  EXPECT_NE(plan.find("end: "), std::string::npos) << plan;
}

TEST_F(OptimizerTest, PathToPathProbeBinding) {
  // The second path starts where the first ends: must become a probe
  // binding, not a residual filter over an all-vertex enumeration.
  std::string plan = MustExplain(
      "SELECT P2.PathString FROM g.Paths P1, g.Paths P2 "
      "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
      "AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1");
  // Two probe joins, the second parameterized by the first.
  size_t first = plan.find("PathProbeJoin");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(plan.find("PathProbeJoin", first + 1), std::string::npos) << plan;
  auto r = session_.Execute(
      "SELECT COUNT(P2) FROM g.Paths P1, g.Paths P2 "
      "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
      "AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Paths from 1: 1->2, 1->3. From 2: 2->3, 2->4. From 3: 3->4. Total 3.
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 3);
}

TEST_F(OptimizerTest, AutoRuleUsesFanOutStatistic) {
  // §6.3: BFS iff F^(L-1) < L. This graph's avg fan-out is 6/5 = 1.2;
  // for L = 3: 1.2^2 = 1.44 < 3 -> BFS.
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 3");
  EXPECT_NE(plan.find("BFScan"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, VertexScanIdProbe) {
  // `V.ID = const` resolves through the topology hash map in O(1).
  std::string plan = MustExplain("SELECT V.name FROM g.Vertexes V "
                                 "WHERE V.ID = 3");
  EXPECT_NE(plan.find("id-probe"), std::string::npos) << plan;
  auto r = session_.Execute("SELECT V.name FROM g.Vertexes V WHERE V.ID = 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "c");
  EXPECT_EQ(session_.last_stats().rows_scanned, 1u);
  // Missing id: zero rows, no error.
  r = session_.Execute("SELECT V.name FROM g.Vertexes V WHERE V.ID = 404");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST_F(OptimizerTest, StatsExposeTraversalWork) {
  auto r = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(session_.last_stats().vertexes_expanded, 0u);
  EXPECT_GT(session_.last_stats().edges_examined, 0u);
  EXPECT_GT(session_.last_stats().paths_emitted, 0u);
}

TEST_F(OptimizerTest, CountPushdownNamedInExplain) {
  // A scalar COUNT straight over the only path probe runs the probe in count
  // mode: one PathCount operator replaces Aggregate(PathProbeJoin).
  const std::string sql =
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length <= 3";
  std::string plan = MustExplain(sql);
  EXPECT_NE(plan.find("PathCount[PathScan(g, "), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Aggregate"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("PathProbeJoin"), std::string::npos) << plan;
  auto r = session_.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // From 1: 1-2, 1-3, 1-2-3, 1-2-4, 1-3-4, 1-2-3-4, 1-2-4-5, 1-3-4-5.
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 8);
  EXPECT_EQ(session_.last_stats().paths_emitted, 8u);
  EXPECT_EQ(session_.last_stats().rows_joined, 0u);

  // COUNT(*) and COUNT(P) side by side, under HAVING / ORDER BY / LIMIT.
  const std::string both =
      "SELECT COUNT(*) AS n, COUNT(P) AS m FROM v U, g.Paths P "
      "WHERE P.StartVertex.Id = U.id AND P.Length <= 2 "
      "HAVING COUNT(*) > 0 ORDER BY n LIMIT 1";
  plan = MustExplain(both);
  EXPECT_NE(plan.find("PathCount[PathScan(g, "), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
  r = session_.Execute(both);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 1u);
  // Length 1: 6 edges; length 2: 1-2-3, 1-2-4, 1-3-4, 2-3-4, 2-4-5, 3-4-5.
  EXPECT_EQ(r->rows[0][0].AsBigInt(), 12);
  EXPECT_EQ(r->rows[0][1].AsBigInt(), 12);

  // Empty input still yields the scalar aggregate's 0.
  r = session_.Execute(
      "SELECT COUNT(P) FROM v U, g.Paths P "
      "WHERE U.name = 'none' AND P.StartVertex.Id = U.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 0);
}

TEST_F(OptimizerTest, CountPushdownKeepsResidualsInsideTheScan) {
  // Path conjuncts that cannot be pushed become the scan's residual, never
  // a filter between the probe and the aggregate, so the count stays
  // pushed and the residual still decides which paths count.
  const std::string sql =
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length <= 3 AND P.EndVertex.Id <> 4";
  std::string plan = MustExplain(sql);
  EXPECT_NE(plan.find("PathCount["), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;
  auto r = session_.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The 8 paths from 1 (see above) minus the three ending at 4.
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 5);
}

TEST_F(OptimizerTest, CountPushdownDoesNotFireOtherwise) {
  // GROUP BY: one count per group, computed by the Aggregate.
  std::string plan = MustExplain(
      "SELECT P.StartVertex.Id, COUNT(P) FROM g.Paths P "
      "WHERE P.Length <= 2 GROUP BY P.StartVertex.Id");
  EXPECT_EQ(plan.find("PathCount"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Aggregate"), std::string::npos) << plan;
  // Other aggregates, or a COUNT whose argument may be NULL.
  plan = MustExplain(
      "SELECT COUNT(P), MAX(P.Length) FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length <= 2");
  EXPECT_EQ(plan.find("PathCount"), std::string::npos) << plan;
  plan = MustExplain(
      "SELECT COUNT(U.name) FROM v U, g.Paths P "
      "WHERE P.StartVertex.Id = U.id AND P.Length <= 2");
  EXPECT_EQ(plan.find("PathCount"), std::string::npos) << plan;
  // Two path bindings: the aggregate's input is not the only probe.
  plan = MustExplain(
      "SELECT COUNT(P2) FROM g.Paths P1, g.Paths P2 "
      "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
      "AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1");
  EXPECT_EQ(plan.find("PathCount"), std::string::npos) << plan;
  // COUNT(DISTINCT ...) is not in the grammar: it is rejected, never
  // silently counted as COUNT(P).
  auto r = session_.Execute(
      "SELECT COUNT(DISTINCT P) FROM g.Paths P WHERE P.Length <= 2");
  EXPECT_FALSE(r.ok());
}

TEST_F(OptimizerTest, ShortestPathCapIgnoresLimitAboveAggregate) {
  // A LIMIT/TOP above an aggregate bounds the aggregate's rows, not the
  // probe's: it must not become SPScan's k-shortest expansion cap, or the
  // aggregate sees fewer paths.
  const std::string where =
      " WHERE PS.StartVertex.Id = 1 AND PS.Length <= 4";
  auto count = [&](const std::string& sql) -> int64_t {
    auto r = session_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->ScalarValue().AsBigInt() : -1;
  };
  const int64_t dfs =
      count("SELECT COUNT(*) FROM g.Paths PS HINT(DFS)" + where);
  EXPECT_EQ(dfs, 9);  // Every simple path out of 1.
  const std::string sp =
      "SELECT COUNT(*) FROM g.Paths PS HINT(SHORTESTPATH(w))" + where;
  EXPECT_EQ(count(sp), dfs);
  EXPECT_EQ(count(sp + " LIMIT 1"), dfs);
  EXPECT_EQ(count("SELECT TOP 1 COUNT(*) FROM g.Paths PS "
                  "HINT(SHORTESTPATH(w))" + where),
            dfs);
  // A bare TOP 1 still bounds the probe: the cheapest path comes first.
  auto top = session_.Execute(
      "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(top->rows[0][0].AsNumeric(), 4.0);
}

TEST_F(OptimizerTest, ExplainAnalyzeCountsBidirectionalProbes) {
  // An endpoint-bound LIMIT 1 probe on the frontier kernel runs as a
  // bidirectional search; EXPLAIN ANALYZE says how many probes did. The
  // choice is made per probe at run time, so the plan text is unchanged.
  const std::string reach =
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 LIMIT 1";
  auto analyze = [&](const std::string& sql) {
    auto r = session_.Execute("EXPLAIN ANALYZE " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string plan;
    if (r.ok()) {
      for (const auto& row : r->rows) plan += row[0].AsVarchar() + "\n";
    }
    return plan;
  };
  const std::string plan = MustExplain(reach);
  EXPECT_NE(plan.find("BFScan"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("bidir"), std::string::npos) << plan;
  const std::string analyzed = analyze(reach);
  EXPECT_NE(analyzed.find("bidir_probes=1"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("Execution: rows=1"), std::string::npos)
      << analyzed;
  // A join re-arms the probe per outer row, each run bidirectionally.
  const std::string joined = analyze(
      "SELECT P.PathString FROM v U, g.Paths P WHERE U.id <= 3 AND "
      "P.StartVertex.Id = U.id AND P.EndVertex.Id = 5 LIMIT 1");
  EXPECT_NE(joined.find("bidir_probes="), std::string::npos) << joined;
  // A target among the starts keeps the one-sided forest.
  const std::string cycle = analyze(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 1 LIMIT 1");
  EXPECT_EQ(cycle.find("bidir_probes="), std::string::npos) << cycle;
}

TEST_F(OptimizerTest, ParameterLengthBoundBoundsTheTraversal) {
  // `Length <= ?` narrows each execution's window like the literal does:
  // same answer, same traversal work.
  auto prepared = session_.Prepare(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = ? AND "
      "P.Length <= ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (int64_t start : {1, 2, 4}) {
    for (int64_t len : {0, 1, 2, 3}) {
      auto literal = session_.Execute(StrFormat(
          "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = %lld AND "
          "P.Length <= %lld",
          static_cast<long long>(start), static_cast<long long>(len)));
      ASSERT_TRUE(literal.ok()) << literal.status().ToString();
      const ExecStats literal_stats = session_.last_stats();
      auto param =
          prepared->Execute({Value::BigInt(start), Value::BigInt(len)});
      ASSERT_TRUE(param.ok()) << param.status().ToString();
      const ExecStats& param_stats = session_.last_stats();
      EXPECT_EQ(param->ScalarValue().AsBigInt(),
                literal->ScalarValue().AsBigInt())
          << "start=" << start << " len=" << len;
      EXPECT_EQ(param_stats.edges_examined, literal_stats.edges_examined)
          << "start=" << start << " len=" << len;
    }
  }
  // Both orientations and lower bounds; a NULL bound admits nothing. (The
  // planner picks DFS or BFS from the literal window, so compare sorted.)
  auto window = session_.Prepare(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "? <= P.Length AND P.Length < ? ORDER BY P.PathString");
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  auto rows = window->Execute({Value::BigInt(2), Value::BigInt(3)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto expected = session_.Execute(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "2 <= P.Length AND P.Length < 3 ORDER BY P.PathString");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(rows->rows, expected->rows);
  EXPECT_EQ(rows->NumRows(), 3u);
  auto none = window->Execute({Value::BigInt(2), Value::Null()});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->NumRows(), 0u);
}

}  // namespace
}  // namespace grfusion
