package repro.sampling

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.kg.KG
import repro.metrics.SubgraphQuality
import repro.synth.Tasks

class SamplingSpec extends SparkSpec {

  private lazy val kg = TestKGs.yago3
  private lazy val targets = Tasks.targets(kg, repro.synth.NCTask(
    "T", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)))

  // ---------------------------------------------------------------- sampleIds
  test("sampleIds returns exactly n distinct ids from the pool") {
    val s = RandomWalk.sampleIds(targets, 50, seed = 1)
    assert(s.count() == 50)
    assert(s.distinct().count() == 50)
    assert(s.join(targets, "id").count() == 50)
  }

  test("sampleIds is deterministic in the seed and varies across seeds") {
    val a = RandomWalk.sampleIds(targets, 30, 1).collect().map(_.getLong(0)).toSet
    val b = RandomWalk.sampleIds(targets, 30, 1).collect().map(_.getLong(0)).toSet
    val c = RandomWalk.sampleIds(targets, 30, 2).collect().map(_.getLong(0)).toSet
    assert(a == b)
    assert(a != c)
  }

  test("sampleIds caps at the pool size") {
    val tiny = targets.limit(5)
    assert(RandomWalk.sampleIds(tiny, 50, 3).count() == 5)
  }

  // ------------------------------------------------------------------ visited
  test("visited always includes the roots") {
    val roots = RandomWalk.sampleIds(targets, 20, 4)
    val vs = RandomWalk.visited(kg.undirected, roots, h = 2, seed = 4)
    assert(roots.join(vs, "id").count() == 20)
  }

  test("visited is bounded by roots * (h + 1)") {
    val roots = RandomWalk.sampleIds(targets, 20, 5)
    val vs = RandomWalk.visited(kg.undirected, roots, h = 3, seed = 5)
    assert(vs.count() <= 20L * 4)
  }

  test("visited nodes are within h hops of some root (BFS check)") {
    val roots = RandomWalk.sampleIds(targets, 15, 6).cache()
    val h = 2
    val vs = RandomWalk.visited(kg.undirected, roots, h, seed = 6)
    val reach = SubgraphQuality.bfsDistances(kg, roots, maxHops = h)
    assert(vs.join(reach, "id").count() == vs.count())
  }

  test("walks on an edgeless graph return only the roots") {
    val empty = kg.triples.filter(lit(false))
    val lonely = KG(kg.schema, empty, kg.nodeTypes)
    val roots = RandomWalk.sampleIds(targets, 10, 7)
    val vs = RandomWalk.visited(lonely.undirected, roots, h = 3, seed = 7)
    assert(vs.count() == 10)
  }

  test("visited is deterministic") {
    val roots = RandomWalk.sampleIds(targets, 10, 8)
    val a = RandomWalk.visited(kg.undirected, roots, 2, 8)
    val b = RandomWalk.visited(kg.undirected, roots, 2, 8)
    assert(a.exceptAll(b).count() == 0)
  }

  test("visited with a new seed compiles no new code") {
    def walk(seed: Int): Unit = RandomWalk.visited(kg.undirected, RandomWalk.sampleIds(targets, 20, seed), 2, seed).collect()
    walk(21)
    val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    walk(22)
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before == 0)
  }

  test("sampleIds and visited equal a walk with literal salts (oracle)") {
    // the queries of a walk that inlines every seed and step salt as a literal
    def literalSample(n: Int, seed: Int): DataFrame =
      targets.orderBy(KG.hashRand(seed, col("id")), col("id")).limit(n)
    def literalWalk(adj: DataFrame, roots: DataFrame, h: Int, seed: Int): Set[Long] = {
      var frontier = roots.select(col("id") as "walker", col("id") as "cur")
      var acc = roots.select(col("id"))
      for (step <- 1 to h) {
        frontier = frontier.join(adj, frontier("cur") === adj("u"))
          .select(col("walker"), col("v"), KG.hashRand(seed * 1000 + step, col("walker"), col("v")) as "r")
          .groupBy(col("walker"))
          .agg(min(struct(col("r"), col("v"))) as "m")
          .select(col("walker"), col("m.v") as "cur")
          .localCheckpoint()
        acc = acc.union(frontier.select(col("cur") as "id"))
      }
      acc.distinct().collect().map(_.getLong(0)).toSet
    }
    def ids(df: DataFrame): Set[Long] = df.collect().map(_.getLong(0)).toSet
    for ((seed, h) <- Seq((31, 2), (32, 3))) {
      val roots = literalSample(25, seed).localCheckpoint()
      assert(ids(RandomWalk.sampleIds(targets, 25, seed)) == ids(roots))
      assert(ids(RandomWalk.visited(kg.undirected, roots, h, seed)) == literalWalk(kg.undirected, roots, h, seed))
    }
  }

  // ------------------------------------------------------------------- induce
  test("induced subgraph keeps exactly the edges among sampled nodes (oracle)") {
    val vs = RandomWalk.visited(kg.undirected, RandomWalk.sampleIds(targets, 30, 9), 2, 9).cache()
    val sub = Induce.extractSubgraph(kg, vs)
    Oracle.assertEquivalent(
      sub.triples,
      "SELECT s, p, o FROM triples WHERE s IN (SELECT id FROM vs) AND o IN (SELECT id FROM vs)",
      "triples" -> kg.triples, "vs" -> vs)
  }

  test("induced subgraph keeps isolated sampled nodes in the type table") {
    val vs = RandomWalk.sampleIds(targets, 10, 10)
    val sub = Induce.extractSubgraph(kg, vs)
    assert(sub.nodeTypes.count() == 10)
  }

  // --------------------------------------------------------------------- URW
  test("URW subgraph nodes are a subset of the full KG's") {
    val sub = URW.sample(kg, bs = 40, h = 3, seed = 11)
    assert(sub.nodeTypes.join(kg.nodeTypes, "id").count() == sub.nodeTypes.count())
  }

  // --------------------------------------------------------------------- BRW
  test("BRW roots come from the target set and survive into KG'") {
    val sub = BRW.sample(kg, targets, bs = 30, h = 2, seed = 12)
    val targetInSub = sub.nodeTypes.join(targets, "id").count()
    assert(targetInSub >= 30) // at least the roots (walks may hit more targets)
  }

  test("BRW subgraph has zero target-disconnected nodes") {
    val sub = BRW.sample(kg, targets, bs = 30, h = 3, seed = 13)
    val q = SubgraphQuality.measure(sub, targets)
    assert(q.targetDisconPct == 0.0)
  }

  test("BRW target ratio exceeds URW target ratio") {
    val brw = SubgraphQuality.measure(BRW.sample(kg, targets, 40, 3, 14), targets)
    val urw = SubgraphQuality.measure(URW.sample(kg, 40, 3, 14), targets)
    assert(brw.targetPct > urw.targetPct)
  }

  // --------------------------------------------------------------------- PPR
  test("PPR mass is bounded by 1 and seeds hold positive score") {
    val seeds = RandomWalk.sampleIds(targets, 20, 15).cache()
    val pi = PPR.scores(kg, seeds, alpha = 0.25, iters = 6).cache()
    val total = pi.agg(sum("score")).head().getDouble(0)
    assert(total <= 1.0 + 1e-6)
    assert(total > 0.2)
    val seedScores = pi.join(seeds, "id").agg(min("score")).head().getDouble(0)
    assert(seedScores > 0.0)
  }

  test("PPR scores decay with distance from the seed on a path graph") {
    import spark.implicits._
    // path 0-1-2-3-4 as a tiny KG
    val triples = Seq((0L, 0, 1L), (1L, 0, 2L), (2L, 0, 3L), (3L, 0, 4L)).toDF("s", "p", "o")
    val nodes = (0L to 4L).map(i => (i, 0)).toDF("id", "ntype")
    val path = KG(kg.schema, triples, nodes)
    val seeds = Seq(Tuple1(0L)).toDF("id")
    val pi = PPR.scores(path, seeds, alpha = 0.2, iters = 10).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(pi(0L) > pi(1L))
    assert(pi(1L) > pi(2L))
    assert(pi(2L) > pi(3L))
  }

  test("PPR is deterministic") {
    val seeds = RandomWalk.sampleIds(targets, 10, 16)
    val a = PPR.scores(kg, seeds, iters = 4).collect().map(r => (r.getLong(0), r.getDouble(1))).toMap
    val b = PPR.scores(kg, seeds, iters = 4).collect().map(r => (r.getLong(0), r.getDouble(1))).toMap
    assert(a == b)
  }

  // --------------------------------------------------------------------- IBS
  test("IBS keeps all sampled targets and bounds the neighbour count") {
    val bs = 25
    val k = 8
    val sub = IBS.sample(kg, targets, bs, k, seed = 17)
    val targetsIn = sub.nodeTypes.join(targets, "id").count()
    assert(targetsIn >= bs)
    // ≤ bs*k selected + their via nodes + roots
    assert(sub.nodeTypes.count() <= bs.toLong * (2 * k + 1) + bs)
  }

  test("IBS subgraph has zero target-disconnected nodes") {
    val sub = IBS.sample(kg, targets, bs = 25, k = 8, seed = 18)
    val q = SubgraphQuality.measure(sub, targets)
    assert(q.targetDisconPct == 0.0)
  }

  test("IBS is deterministic") {
    val a = IBS.sample(kg, targets, 15, 6, seed = 19)
    val b = IBS.sample(kg, targets, 15, 6, seed = 19)
    assert(a.triples.exceptAll(b.triples).count() == 0)
  }
}
