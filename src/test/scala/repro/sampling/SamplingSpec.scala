package repro.sampling

import scala.collection.mutable

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{CachedTables, DataFrame}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.ColumnOracle.hashRand
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
  private def rootIds(n: Int, seed: Int): Array[Long] = RandomWalk.sampleIds(KG.ids(targets), n, seed)

  test("visited always includes the roots") {
    val roots = rootIds(20, 4)
    val vs = RandomWalk.visited(kg.adjacency(), roots, h = 2, seed = 4)
    assert(roots.forall(vs.contains))
  }

  test("visited is bounded by roots * (h + 1)") {
    val vs = RandomWalk.visited(kg.adjacency(), rootIds(20, 5), h = 3, seed = 5)
    assert(vs.length <= 20 * 4)
  }

  test("visited nodes are within h hops of some root (BFS check)") {
    import spark.implicits._
    val roots = rootIds(15, 6)
    val h = 2
    val vs = RandomWalk.visited(kg.adjacency(), roots, h, seed = 6)
    val reach = SubgraphQuality.bfsDistances(kg, roots.toSeq.toDF("id"), maxHops = h)
      .collect().map(_.getLong(0)).toSet
    assert(vs.forall(reach))
  }

  test("walks on an edgeless graph return only the roots") {
    val empty = kg.triples.filter(lit(false))
    val lonely = KG(kg.schema, empty, kg.nodeTypes)
    val vs = RandomWalk.visited(lonely.adjacency(), rootIds(10, 7), h = 3, seed = 7)
    assert(vs.length == 10)
  }

  test("visited is deterministic") {
    val roots = rootIds(10, 8)
    val a = RandomWalk.visited(kg.adjacency(), roots, 2, 8)
    val b = RandomWalk.visited(kg.adjacency(), roots, 2, 8)
    assert(a.sameElements(b))
  }

  test("visited with a new seed compiles no new code") {
    def walk(seed: Int): Unit = RandomWalk.visited(kg.adjacency(), rootIds(20, seed), 2, seed)
    walk(21)
    val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    walk(22)
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before == 0)
  }

  test("sampleIds and visited equal a walk with literal salts (oracle)") {
    // the queries of a walk that inlines every seed and step salt as a literal,
    // over an undirected view built here: each triple as (u, v) and (v, u)
    val und = kg.triples
      .select(explode(array(struct(col("s") as "u", col("o") as "v"), struct(col("o") as "u", col("s") as "v"))) as "e")
      .select(col("e.u") as "u", col("e.v") as "v")
    def literalSample(n: Int, seed: Int): DataFrame =
      targets.orderBy(hashRand(seed, col("id")), col("id")).limit(n)
    def literalWalk(roots: DataFrame, h: Int, seed: Int): Set[Long] = {
      var frontier = roots.select(col("id") as "walker", col("id") as "cur")
      var acc = roots.select(col("id"))
      for (step <- 1 to h) {
        frontier = frontier.join(und, frontier("cur") === und("u"))
          .select(col("walker"), col("v"), hashRand(seed * 1000 + step, col("walker"), col("v")) as "r")
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
      assert(RandomWalk.visited(kg.adjacency(), ids(roots).toArray, h, seed).toSet == literalWalk(roots, h, seed))
    }
  }

  // ------------------------------------------------------------------- induce
  test("induced subgraph keeps exactly the edges among sampled nodes (oracle)") {
    import spark.implicits._
    val vs = RandomWalk.visited(kg.adjacency(), rootIds(30, 9), 2, 9).toSeq.toDF("id")
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

  test("PPR scores equal a plain power iteration over the collected triples (oracle)") {
    val (alpha, iters) = (0.25, 8)
    val seeds = RandomWalk.sampleIds(targets, 20, 24)
    val got = PPR.scores(kg, seeds, alpha, iters).collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    // every triple is an edge both ways, duplicates kept; a node without edges pushes nothing
    val nbrs = kg.triples.select("s", "o").collect()
      .flatMap(r => Seq(r.getLong(0) -> r.getLong(1), r.getLong(1) -> r.getLong(0)))
      .groupMap(_._1)(_._2)
    val roots = seeds.collect().map(_.getLong(0)).toSet
    val t = 1.0 / roots.size
    var pi = roots.iterator.map(_ -> t).toMap
    for (_ <- 1 to iters) {
      val pushed = mutable.HashMap.empty[Long, Double]
      for ((u, m) <- pi; vs <- nbrs.get(u); v <- vs) pushed(v) = pushed.getOrElse(v, 0.0) + m / vs.length
      pi = (pushed.keySet ++ roots).iterator.map { v =>
        v -> ((1 - alpha) * pushed.getOrElse(v, 0.0) + (if (roots(v)) alpha * t else 0.0))
      }.toMap
    }
    assert(got.keySet == pi.keySet)
    for ((v, x) <- pi) assert(math.abs(got(v) - x) <= 1e-12, s"node $v: ${got(v)} vs $x")
  }

  test("IBS keeps the node set of Algorithm 2's selection over the PPR scores (oracle)") {
    val (bs, k, alpha, seed) = (20, 6, 0.25, 25)
    val roots = RandomWalk.sampleIds(targets, bs, seed)
    val sub = IBS.sample(kg, targets, bs, k, alpha, seed)
    // per target: hop-1 rows, then hop-2 rows from the kept hop-1 rows, each
    // capped at 64 rows (duplicates count) by score and id; per (target, node)
    // the larger via (the score is the node's); then the top k by score and id
    def capped(rows: String, cap: Int): String =
      s"""SELECT t, nbr, via, score FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY t ORDER BY score DESC, nbr) AS rk
         |FROM $rows) WHERE rk <= $cap""".stripMargin
    Oracle.assertEquivalent(sub.nodeTypes.select("id"),
      s"""WITH adj AS (SELECT CAST(s AS BIGINT) AS u, CAST(o AS BIGINT) AS v FROM triples
         |             UNION ALL SELECT CAST(o AS BIGINT), CAST(s AS BIGINT) FROM triples),
         |inf AS (SELECT CAST(id AS BIGINT) AS id, CAST(score AS DOUBLE) AS score FROM scores),
         |r AS (SELECT CAST(id AS BIGINT) AS id FROM roots),
         |c1 AS (SELECT r.id AS t, a.v AS nbr, a.v AS via, COALESCE(i.score, 0.0) AS score
         |       FROM r JOIN adj a ON a.u = r.id LEFT JOIN inf i ON i.id = a.v),
         |h1 AS (${capped("c1", 64)}),
         |c2 AS (SELECT h1.t AS t, a.v AS nbr, h1.nbr AS via, COALESCE(i.score, 0.0) AS score
         |       FROM h1 JOIN adj a ON a.u = h1.nbr LEFT JOIN inf i ON i.id = a.v),
         |h2 AS (${capped("c2", 64)}),
         |m AS (SELECT t, nbr, MAX(via) AS via, MAX(score) AS score
         |      FROM (SELECT * FROM h1 UNION ALL SELECT * FROM h2) GROUP BY t, nbr),
         |top AS (${capped("m", k)})
         |SELECT id FROM r UNION SELECT nbr FROM top UNION SELECT via FROM top""".stripMargin,
      "triples" -> kg.triples.select("s", "o"), "scores" -> PPR.scores(kg, roots, alpha), "roots" -> roots)
  }

  test("the samplers and the quality measure leave no persisted RDD or cached table behind") {
    val sc = spark.sparkContext
    targets.count() // builds the shared KG, which stays resident
    val (rdds, tables) = (sc.getPersistentRDDs.keySet.toSet, CachedTables.count(spark))
    IBS.sample(kg, targets, 10, 4, seed = 26).uncache()
    URW.sample(kg, 20, 2, 26)
    SubgraphQuality.measure(BRW.sample(kg, targets, 20, 2, 26), targets)
    val left = sc.getPersistentRDDs.keySet.toSet -- rdds
    assert(left.isEmpty, left.map(sc.getPersistentRDDs(_).toDebugString).mkString("\n"))
    assert(CachedTables.count(spark) == tables)
  }
}
