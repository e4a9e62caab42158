package repro.gnn

import org.apache.spark.{HashPartitioner, ShuffleDependency}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.kg.KG

class FeaturesAggSpec extends SparkSpec {

  import spark.implicits._

  private def part = new HashPartitioner(spark.sparkContext.defaultParallelism)

  /** A hop of two-wide vectors as a ``(id, f0, f1)`` table. */
  private def table(h: Aggregation.Vectors): DataFrame = h.map { case (id, x) => (id, x(0), x(1)) }.toDF("id", "f0", "f1")

  /** Two oracle-friendly features: the planted ones sit on a 1e-6 grid, so
    * their means often tie at the oracle's 6-decimal rounding and one ulp of
    * summation order flips the printed digit.
    */
  private def oracleFeats(kg: KG): DataFrame =
    kg.nodeTypes.select(col("id"), (col("id") % 7).cast("double") as "f0", sqrt(col("id").cast("double")) as "f1")

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
    val feats = oracleFeats(kg)
    val hs = Aggregation.hops(Aggregation.adjacency(kg, part), Aggregation.vectors(feats, part), l = 2).map(table)
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

  test("the fanout-capped hop 1 equals DuckDB's AVG over each node's least-hash neighbours (oracle)") {
    val kg = TestKGs.yago3
    val (cap, seed) = (2, 11)
    val feats = oracleFeats(kg)
    val h1 = Aggregation.hops(Aggregation.adjacency(kg, part, Some(cap), seed), Aggregation.vectors(feats, part), l = 1)(1)
    // each triple both ways, with the draw from the Column hashBucket; DuckDB ranks by it
    val und = kg.triples.select(col("s") as "u", col("o") as "v").union(kg.triples.select(col("o") as "u", col("s") as "v"))
      .select(col("u"), col("v"), KG.hashBucket(lit(seed), col("u"), col("v")) as "r")
    Oracle.assertEquivalent(table(h1),
      s"""WITH ranked AS (SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
         |                  ROW_NUMBER() OVER (PARTITION BY CAST(u AS BIGINT) ORDER BY CAST(r AS INT), CAST(v AS BIGINT)) AS rk
         |                  FROM und),
         |h0 AS (SELECT CAST(id AS BIGINT) AS id, CAST(f0 AS DOUBLE) AS f0, CAST(f1 AS DOUBLE) AS f1 FROM feats)
         |SELECT a.u AS id, AVG(h0.f0) AS f0, AVG(h0.f1) AS f1
         |FROM ranked a JOIN h0 ON a.v = h0.id WHERE a.rk <= $cap GROUP BY a.u""".stripMargin,
      "und" -> und, "feats" -> feats)
  }

  test("L hops over a partitioned adjacency and features run L shuffles") {
    val kg = TestKGs.yago3
    val adj = Aggregation.adjacency(kg, part).persist()
    val feats = Aggregation.vectors(Features.nodeFeatures(kg), part).persist()
    // the shuffles between hop k and the two inputs, in the RDD lineage
    def shuffles(rdd: RDD[_]): Set[Int] =
      if (rdd.id == adj.id || rdd.id == feats.id) Set.empty
      else rdd.dependencies.flatMap {
        case s: ShuffleDependency[_, _, _] => shuffles(s.rdd) + s.shuffleId
        case d                             => shuffles(d.rdd)
      }.toSet
    val hs = Aggregation.hops(adj, feats, l = 3)
    assert(hs.map(shuffles(_).size) == Seq(0, 1, 2, 3))
    assert(hs.forall(_.partitioner.contains(part)))
    adj.unpersist(); feats.unpersist()
  }

  test("node features are one projection of the node-type table, with no join") {
    val plan = Features.nodeFeatures(TestKGs.mag).queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan.treeString)
  }
}
