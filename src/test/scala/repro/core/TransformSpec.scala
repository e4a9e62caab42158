package repro.core

import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestKGs}

class TransformSpec extends SparkSpec {

  private lazy val t = Transform.toAdjacency(TestKGs.yago3)

  test("node ids become dense 0-based indices") {
    assert(t.nNodes == TestKGs.yago3.nodeTypes.count())
    val mm = t.nodes.agg(min("nid"), max("nid")).head()
    assert(mm.getLong(0) == 0L)
    assert(mm.getLong(1) == t.nNodes - 1)
    assert(t.nodes.select("nid").distinct().count() == t.nNodes)
  }

  test("nid is the 0-based rank of id") {
    val byId = t.nodes.select("id", "nid").collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    assert(byId.map(_._2).toSeq == byId.indices.map(_.toLong))
  }

  test("the executed plans of the transformed tables hold no Window operator") {
    // every operator that ran, through AQE stages and into cached plans
    def operators(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
      case a: AdaptiveSparkPlanExec => operators(a.executedPlan)
      case q: QueryStageExec        => operators(q.plan)
      case m: InMemoryTableScanExec => operators(m.relation.cachedPlan)
      case other                    => other.children.flatMap(operators)
    })
    val ops = Seq(t.nodes, t.edges).flatMap(df => operators(df.queryExecution.executedPlan))
    assert(ops.count(_.isInstanceOf[InMemoryTableScanExec]) == 2, "both tables are served from the cache")
    assert(!ops.exists(_.isInstanceOf[WindowExec]), ops.map(_.nodeName).distinct.mkString(", "))
  }

  test("edge count and relation count are preserved") {
    assert(t.nEdges == TestKGs.yago3.triples.count())
    assert(t.nRels == TestKGs.yago3.triples.select("p").distinct().count())
  }

  test("edges map back to the original triples exactly") {
    val back = t.edges
      .join(t.nodes.select(col("nid") as "src", col("id") as "s"), "src")
      .join(t.nodes.select(col("nid") as "dst", col("id") as "o"), "dst")
      .select("s", "p", "o")
    assert(back.exceptAll(TestKGs.yago3.triples).count() == 0)
    assert(TestKGs.yago3.triples.exceptAll(back).count() == 0)
  }

  test("edge endpoints stay within the dense index range") {
    val bad = t.edges.filter(col("src") < 0 || col("src") >= t.nNodes ||
                             col("dst") < 0 || col("dst") >= t.nNodes).count()
    assert(bad == 0)
  }

  test("transformation reports a positive wall-clock time") {
    assert(t.seconds > 0.0)
  }
}
