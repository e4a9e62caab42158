package repro.gnn

import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.kg.KG

class FeaturesAggSpec extends SparkSpec {

  import spark.implicits._

  test("feature width equals the community count") {
    val f = Features.nodeFeatures(TestKGs.mag)
    assert(f.columns.count(_.startsWith("f")) == TestKGs.mag.schema.communities)
  }

  test("every node gets a feature row") {
    val f = Features.nodeFeatures(TestKGs.yago3)
    assert(f.count() == TestKGs.yago3.nodeTypes.count())
  }

  test("signal types carry a community indicator, noise types do not") {
    val kg = TestKGs.mag
    val f = Features.nodeFeatures(kg)
    val authors = kg.schema.nodeType("Author")
    // authors of community 0: f0 should average ≈ 1, f1 ≈ 0
    val authorsC0 = f.filter(col("id") >= authors.offset && col("id") < authors.offset + authors.count)
      .filter(pmod(col("id") - authors.offset, lit(kg.schema.communities.toLong)) === 0)
    val m = authorsC0.agg(avg("f0"), avg("f1")).head()
    assert(m.getDouble(0) > 0.8, s"signal mean ${m.getDouble(0)}")
    assert(math.abs(m.getDouble(1)) < 0.2)
    // papers (target type) are pure noise
    val papers = kg.schema.nodeType("Paper")
    val papersC0 = f.filter(col("id") >= papers.offset && col("id") < papers.offset + papers.count)
      .filter(pmod(col("id") - papers.offset, lit(kg.schema.communities.toLong)) === 0)
    assert(math.abs(papersC0.agg(avg("f0")).head().getDouble(0)) < 0.2)
  }

  test("features are deterministic") {
    val a = Features.nodeFeatures(TestKGs.yago3).agg(sum("f0")).head().getDouble(0)
    val b = Features.nodeFeatures(TestKGs.yago3).agg(sum("f0")).head().getDouble(0)
    assert(a == b)
  }

  test("signal type lists reject unknown KGs") {
    intercept[NoSuchElementException](Features.signalTypesFor("nope"))
  }

  test("1-hop aggregation computes the exact neighbour mean on a hand graph") {
    // 0 -> 1, 0 -> 2 ; features f0: node1 = 1.0, node2 = 3.0, node0 = 0.0
    val schema = TestKGs.yago3.schema
    val g = KG(schema,
      Seq((0L, 0, 1L), (0L, 0, 2L)).toDF("s", "p", "o"),
      Seq((0L, 0), (1L, 0), (2L, 0)).toDF("id", "ntype"))
    val feats = Seq((0L, 0.0), (1L, 1.0), (2L, 3.0)).toDF("id", "f0")
    val agg = Aggregation.aggregate(g, feats, l = 1)
    val row0 = agg.filter(col("id") === 0L).head()
    assert(math.abs(row0.getAs[Double]("h1_f0") - 2.0) < 1e-9) // mean(1, 3)
    val row1 = agg.filter(col("id") === 1L).head()
    assert(math.abs(row1.getAs[Double]("h1_f0") - 0.0) < 1e-9) // undirected: sees node 0
  }

  test("2-hop aggregation is the mean of hop-1 aggregates") {
    // chain 0-1-2; f0 = id value
    val schema = TestKGs.yago3.schema
    val g = KG(schema,
      Seq((0L, 0, 1L), (1L, 0, 2L)).toDF("s", "p", "o"),
      Seq((0L, 0), (1L, 0), (2L, 0)).toDF("id", "ntype"))
    val feats = Seq((0L, 0.0), (1L, 1.0), (2L, 2.0)).toDF("id", "f0")
    val agg = Aggregation.aggregate(g, feats, l = 2)
    // h1(0)=1, h1(1)=mean(0,2)=1, h1(2)=1 ⇒ h2(0)=h1(1)=1
    val row0 = agg.filter(col("id") === 0L).head()
    assert(math.abs(row0.getAs[Double]("h2_f0") - 1.0) < 1e-9)
  }

  test("isolated nodes aggregate to zero-filled hop features") {
    val schema = TestKGs.yago3.schema
    val g = KG(schema,
      Seq((0L, 0, 1L)).toDF("s", "p", "o"),
      Seq((0L, 0), (1L, 0), (9L, 0)).toDF("id", "ntype"))
    val feats = Seq((0L, 1.0), (1L, 1.0), (9L, 1.0)).toDF("id", "f0")
    val agg = Aggregation.aggregate(g, feats, l = 1)
    assert(agg.filter(col("id") === 9L).head().getAs[Double]("h1_f0") == 0.0)
  }

  test("fanout cap bounds the neighbours used") {
    val kg = TestKGs.yago3
    val feats = Features.nodeFeatures(kg)
    val capped = Aggregation.aggregate(kg, feats, l = 1, fanoutCap = Some(2))
    val full = Aggregation.aggregate(kg, feats, l = 1)
    assert(capped.count() == full.count())
  }

  test("hop tables equal DuckDB's neighbour AVG over the undirected adjacency (oracle)") {
    val kg = TestKGs.yago3
    // the kernel does not care what the features are; the planted ones sit
    // on a 1e-6 grid, so their means often tie at the oracle's 6-decimal
    // rounding and one ulp of summation order flips the printed digit
    val feats = kg.nodeTypes.select(col("id"), (col("id") % 7).cast("double") as "f0",
      sqrt(col("id").cast("double")) as "f1")
    val hs = Aggregation.hops(kg.undirected, feats, l = 2)
    // duplicate edges count once per copy; a node with no neighbours has no row
    val adj = """adj AS (SELECT CAST(s AS BIGINT) AS u, CAST(o AS BIGINT) AS v FROM triples
                |        UNION ALL SELECT CAST(o AS BIGINT), CAST(s AS BIGINT) FROM triples),
                |h0 AS (SELECT CAST(id AS BIGINT) AS id, CAST(f0 AS DOUBLE) AS f0, CAST(f1 AS DOUBLE) AS f1 FROM feats),
                |h1 AS (SELECT a.u AS id, AVG(h0.f0) AS f0, AVG(h0.f1) AS f1 FROM adj a JOIN h0 ON a.v = h0.id GROUP BY a.u)""".stripMargin
    val tables = Seq("triples" -> kg.triples.select("s", "o"), "feats" -> feats)
    Oracle.assertEquivalent(hs(1), s"WITH $adj SELECT id, f0, f1 FROM h1", tables: _*)
    Oracle.assertEquivalent(hs(2),
      s"WITH $adj SELECT a.u AS id, AVG(h1.f0) AS f0, AVG(h1.f1) AS f1 FROM adj a JOIN h1 ON a.v = h1.id GROUP BY a.u",
      tables: _*)
  }

  test("each hop is one join over materialised tables, with no nested join") {
    val kg = TestKGs.yago3
    val adj = kg.undirected.localCheckpoint()
    val hs = Aggregation.hops(adj, Features.nodeFeatures(kg).localCheckpoint(), l = 2)
    assert(hs.forall(_.queryExecution.logical.isInstanceOf[LogicalRDD]))
    for (prev <- hs.init) {
      val plan = Aggregation.hop(adj, prev).queryExecution.optimizedPlan
      assert(plan.collect { case j: Join => j }.size == 1, plan.treeString)
      assert(plan.collectLeaves().forall(_.isInstanceOf[LogicalRDD]), plan.treeString)
    }
  }

  test("node features are one projection of the node-type table, with no join") {
    val plan = Features.nodeFeatures(TestKGs.mag).queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan.treeString)
  }
}
