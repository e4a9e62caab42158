package repro.kg

import scala.collection.mutable

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.{CoGroupedRDD, RDD}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean

import repro.{SparkSpec, TestKGs}
import repro.core.{KGTOSA, Transform}
import repro.gnn.{Aggregation, Features}
import repro.metrics.SubgraphQuality
import repro.sampling.{PPR, RandomWalk}

class NodeJoinSpec extends SparkSpec {

  private def sc = spark.sparkContext

  /** A random multigraph's ``(v, u)`` pairs (repeats and self-loops) and a
    * node table over some of its keys and some others, with 1, 3 or 8
    * partitions: keys miss on either side, and small graphs leave
    * partitions empty. The key pool holds the keys a long hash map treats
    * apart (0 and the extremes).
    */
  private val genGraph: Gen[(Int, List[(Long, Long)], Map[Long, Int])] = {
    val key = Gen.oneOf(Gen.chooseNum(-3L, 12L), Gen.oneOf(0L, Long.MinValue, Long.MaxValue))
    for {
      parts <- Gen.oneOf(1, 3, 8)
      pairs <- Gen.listOf(Gen.zip(key, key))
      loops <- Gen.listOf(key.map(k => (k, k)))
      nodes <- Gen.mapOf(Gen.zip(key, Gen.chooseNum(0, 4)))
    } yield (parts, pairs ++ loops ++ pairs.take(3), nodes)
  }

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(30), p)
    assert(r.passed, r.status)
  }

  private def keyed[V: scala.reflect.ClassTag](rows: Seq[(Long, V)], parts: Int): RDD[(Long, V)] =
    sc.parallelize(rows, parts).partitionBy(new HashPartitioner(parts))

  test("the hash join and its hops equal RDD.join and combineByKey on random multigraphs (property)") {
    check(Prop.forAll(genGraph) { case (parts, pairs, nodes) =>
      val adj = keyed(pairs, parts)
      val types = keyed(nodes.toSeq, parts)
      val scores = types.mapValues(t => 1.0 / (t + 3))
      def bag[V](r: RDD[(Long, V)]): Map[(Long, V), Int] = r.collect().groupMapReduce(identity)(_ => 1)(_ + _)
      def same[V](a: RDD[(Long, V)], b: RDD[(Long, V)]): Boolean = bag(a) == bag(b)
      val joined = NodeJoin.join(adj, types)
      val sets = NodeJoin.hop[Int, Set[Int]](adj, types)(Set(_), _ + _, _ ++ _)
      val setsRef = adj.join(types).values.combineByKey[Set[Int]](Set(_), _ + _, _ ++ _)
      val sums = NodeJoin.hop[Double, Double](adj, scores)(identity, _ + _, _ + _).collect().toMap
      val sumsRef = adj.join(scores).values.reduceByKey(_ + _).collect().toMap
      val counts = NodeJoin.reduce(adj.mapValues(_ => 1), new HashPartitioner(parts))(_ + _)
      (same(joined, adj.join(types)) :| "join") &&
        (joined.partitioner == adj.partitioner) :| "join keeps the partitioner" &&
        same(sets, setsRef) :| "hop of sets" &&
        (sets.partitioner == adj.partitioner) :| "hop partitions as the pairs" &&
        (sums.keySet == sumsRef.keySet && sums.forall { case (k, s) => math.abs(s - sumsRef(k)) <= 1e-12 }) :| "hop of doubles" &&
        same(counts, adj.mapValues(_ => 1).reduceByKey(_ + _)) :| "reduce"
    })
  }

  test("a node table with two rows for one node is rejected") {
    val part = new HashPartitioner(2)
    val nodes = sc.parallelize(Seq((1L, 1), (1L, 2))).partitionBy(part)
    val e = intercept[org.apache.spark.SparkException](NodeJoin.join(sc.parallelize(Seq((1L, 0L))).partitionBy(part), nodes).count())
    assert(e.getMessage.contains("two rows"))
  }

  test("rows and nodes under different partitioners are rejected") {
    val rows = sc.parallelize(Seq((1L, 0L))).partitionBy(new HashPartitioner(2))
    intercept[IllegalArgumentException](NodeJoin.join(rows, sc.parallelize(Seq((1L, 1))).partitionBy(new HashPartitioner(3))))
    intercept[IllegalArgumentException](NodeJoin.join(sc.parallelize(Seq((1L, 0L))), rows))
  }

  /** Every RDD ``rdd`` depends on, itself included. */
  private def lineage(rdd: RDD[_]): Seq[RDD[_]] = {
    val seen = mutable.LinkedHashMap.empty[Int, RDD[_]]
    def go(r: RDD[_]): Unit = if (!seen.contains(r.id)) { seen(r.id) = r; r.dependencies.foreach(d => go(d.rdd)) }
    go(rdd)
    seen.values.toSeq
  }

  private def coGrouped(rdd: RDD[_]): Seq[String] = lineage(rdd).collect { case c: CoGroupedRDD[_] => c.toString }

  test("no CoGroupedRDD in the lineage of the hops, PPR, BFS, Transform's edges and KG' node rows") {
    val kg = TestKGs.yago3
    val part = new HashPartitioner(sc.defaultParallelism)
    val adj = Aggregation.adjacency(kg, part)
    val roots = RandomWalk.sampleIds(KG.ids(kg.nodesOfType("Person")), 10, seed = 3)
    // the guard sees the join it rules out
    assert(coGrouped(adj.join(adj)).nonEmpty)
    val t = Transform.toAdjacency(kg)
    val targets = kg.nodesOfType("Person")
    val outputs = Seq[(String, RDD[_])](
      "hops" -> Aggregation.hops(adj, Aggregation.vectors(Features.nodeFeatures(kg), part), l = 2).last,
      "PPR" -> PPR.scores(adj, roots, alpha = 0.25, iters = 3),
      "BFS" -> SubgraphQuality.bfsDistances(kg, RandomWalk.sampleIds(targets, 5, seed = 3), maxHops = 3).queryExecution.toRdd,
      "Transform edges" -> t.edges.queryExecution.toRdd,
      "KG' node rows" -> KGTOSA.nodeRows(kg.nodeTypes.select("id", "ntype"), kg.triples.limit(50), targets))
    for ((name, rdd) <- outputs) assert(coGrouped(rdd).isEmpty, s"$name: ${coGrouped(rdd)}")
    t.nodes.unpersist(); t.edges.unpersist()
  }
}
