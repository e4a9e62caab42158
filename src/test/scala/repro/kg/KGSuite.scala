package repro.kg

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._

import repro.{SparkSpec, TestKGs}
import repro.synth.KGBench

class KGSuite extends SparkSpec {

  private lazy val kg = TestKGs.mag

  test("stats counts nodes, edges and distinct types from the data") {
    val st = kg.stats
    assert(st.nodes == kg.schema.totalNodes)
    assert(st.edges == kg.triples.count())
    assert(st.nTypes == kg.schema.nodeTypes.size)
    assert(st.eTypes <= kg.schema.edgeTypes.size)
    assert(st.eTypes > 0)
  }

  test("stats reads both tables in one Spark job") {
    val (g, sc) = (kg, spark.sparkContext) // built outside the job group
    sc.setJobGroup("kg-stats", "KG.stats")
    try g.stats
    finally sc.clearJobGroup()
    // the status tracker hears of jobs in order: once it has seen a later
    // job, it has seen every job of the call
    sc.setJobGroup("kg-stats-after", "marker")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    eventually(timeout(30.seconds))(assert(sc.statusTracker.getJobIdsForGroup("kg-stats-after").nonEmpty))
    assert(sc.statusTracker.getJobIdsForGroup("kg-stats").length == 1)
  }

  test("cached() holds each table in at most defaultParallelism partitions and keeps every row") {
    val cores = spark.sparkContext.defaultParallelism
    assert(kg.triples.rdd.getNumPartitions <= cores)
    assert(kg.nodeTypes.rdd.getNumPartitions <= cores)
    val raw = KGBench.generate(spark, KGBench.MAG, TestKGs.UnitScale)
    assert(raw.triples.exceptAll(kg.triples).count() == 0)
    assert(kg.triples.exceptAll(raw.triples).count() == 0)
    assert(raw.nodeTypes.exceptAll(kg.nodeTypes).count() == 0)
    assert(kg.nodeTypes.exceptAll(raw.nodeTypes).count() == 0)
  }

  test("uncache() frees the two RDDs cached() holds") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val g = kg.cached()
    val held = sc.getPersistentRDDs.keySet -- before
    assert(held.size == 2)
    g.uncache()
    assert((sc.getPersistentRDDs.keySet & held).isEmpty)
  }

  test("adjacency holds two pairs per triple under the partitioner passed in") {
    val part = new HashPartitioner(3)
    val adj = kg.adjacency(part)
    assert(adj.partitioner.contains(part))
    assert(adj.count() == 2 * kg.triples.count())
  }

  test("adjacency contains both directions of a triple") {
    val t = kg.triples.limit(1).collect().head
    val (s, o) = (t.getLong(0), t.getLong(2))
    val adj = kg.adjacency()
    assert(adj.filter(_ == ((s, o))).count() >= 1)
    assert(adj.filter(_ == ((o, s))).count() >= 1)
  }

  test("nodesOfType returns exactly the type's range") {
    val t = kg.schema.nodeType("Venue")
    val ids = kg.nodesOfType("Venue").collect().map(_.getLong(0)).sorted
    assert(ids.length == t.count)
    assert(ids.head == t.offset && ids.last == t.offset + t.count - 1)
  }

  test("nodesOfType rejects unknown type names") {
    intercept[NoSuchElementException](kg.nodesOfType("NotAType"))
  }

  test("hashRand is deterministic and in (0, 1)") {
    val df = spark.range(1000).select(KG.hashRand(7, col("id")) as "u")
    val vals = df.collect().map(_.getDouble(0))
    assert(vals.forall(v => v > 0.0 && v < 1.0))
    val again = spark.range(1000).select(KG.hashRand(7, col("id")) as "u").collect().map(_.getDouble(0))
    assert(vals.sameElements(again))
  }

  test("hashRand varies with salt") {
    val a = spark.range(100).select(KG.hashRand(1, col("id")) as "u").collect().map(_.getDouble(0))
    val b = spark.range(100).select(KG.hashRand(2, col("id")) as "u").collect().map(_.getDouble(0))
    assert(!a.sameElements(b))
  }

  test("hashRand is roughly uniform") {
    val mean = spark.range(20000).select(avg(KG.hashRand(3, col("id")))).head().getDouble(0)
    assert(math.abs(mean - 0.5) < 0.02)
  }

  test("uniform of a collected hashBucket is hashRand, bit for bit") {
    val rows = spark.range(20000)
      .select(KG.hashBucket(lit(9002), col("id"), col("id") * 3), KG.hashRand(9002, col("id"), col("id") * 3))
      .collect()
    rows.foreach(r => assert(KG.uniform(r.getInt(0)) == r.getDouble(1), s"bucket ${r.getInt(0)}"))
  }

  test("the driver bucket is the Column hashBucket, bit for bit") {
    // (long, long, int) and (long, int) rows over negative, large and small ids
    val rows = spark.range(20000)
      .select(col("id") * 2654435761L - lit(1L << 40) as "a", col("id") % 97 - 48 as "b", (col("id") % 5000).cast("int") as "salt")
      .select(col("a"), col("b"), col("salt"),
        KG.hashBucket(col("salt"), col("a"), col("b")), KG.hashBucket(col("salt"), col("a")))
      .collect()
    rows.foreach { r =>
      val (a, b, salt) = (r.getLong(0), r.getLong(1), r.getInt(2))
      assert(KG.bucket(salt, a, b) == r.getInt(3), s"($a, $b, $salt)")
      assert(KG.bucket(salt, a) == r.getInt(4), s"($a, $salt)")
    }
  }

  test("an RDD shuffle over a pair of primitives runs (Kryo on Java 17)") {
    val pairs = spark.sparkContext.parallelize(0L until 1000L, 4).map(i => (i % 7, (i % 3).toInt))
    assert(pairs.sortByKey().keys.collect().sorted.sameElements((0L until 1000L).map(_ % 7).sorted))
    assert(pairs.countByValue().values.sum == 1000L)
  }
}
