package repro.metrics

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.kg.KG
import repro.sampling.{BRW, RandomWalk}

class SubgraphQualitySpec extends SparkSpec {

  import spark.implicits._

  /** star: 0 is the hub; 1..4 leaves; 5 isolated; 6-7 a detached pair. */
  private lazy val star: KG = {
    val triples = Seq((0L, 0, 1L), (0L, 0, 2L), (0L, 0, 3L), (3L, 1, 4L), (6L, 0, 7L))
      .toDF("s", "p", "o")
    val nodes = Seq((0L, 0), (1L, 1), (2L, 1), (3L, 2), (4L, 1), (5L, 3), (6L, 1), (7L, 1))
      .toDF("id", "ntype")
    KG(TestKGs.yago3.schema, triples, nodes)
  }

  private lazy val hub = Seq(Tuple1(0L)).toDF("id")

  test("bfs distances from the hub are hop counts") {
    val d = SubgraphQuality.bfsDistances(star, hub).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(d(0L) == 0)
    assert(d(1L) == 1 && d(2L) == 1 && d(3L) == 1)
    assert(d(4L) == 2)
    assert(!d.contains(5L) && !d.contains(6L))
  }

  test("bfs respects the hop cap") {
    val d = SubgraphQuality.bfsDistances(star, hub, maxHops = 1).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(!d.contains(4L))
    assert(d(3L) == 1)
  }

  test("bfs stops at the first level that reaches no new node") {
    val (dist, sizes) = SubgraphQuality.bfs(star.adjacency(), KG.ids(hub), maxHops = 10)
    dist.unpersist()
    assert(sizes == Seq(1L, 3L, 1L, 0L)) // hub; 1, 2, 3; 4; nothing new
  }

  test("measure counts targets, types and relations on the star") {
    val q = SubgraphQuality.measure(star, hub)
    assert(q.nodes == 8)
    assert(q.targetPct == 12.5) // 1 of 8
    assert(q.cPrime == 4)
    assert(q.rPrime == 2)
  }

  test("disconnected share counts non-targets unreachable from targets") {
    val q = SubgraphQuality.measure(star, hub)
    // non-targets: 7; unreachable: 5, 6, 7 → 3/7
    assert(math.abs(q.targetDisconPct - 100.0 * 3 / 7) < 1e-9)
  }

  test("average distance covers reachable non-targets only") {
    val q = SubgraphQuality.measure(star, hub)
    // dists: 1,1,1,2 → 1.25
    assert(math.abs(q.avgDistToTarget - 1.25) < 1e-9)
  }

  test("entropy of a uniform neighbour-count histogram is log2(bins)") {
    // chain 0-1-2: counts = node0:1, node1:2, node2:1 → hist {1:2, 2:1}
    val chain = KG(
      TestKGs.yago3.schema,
      Seq((0L, 0, 1L), (1L, 0, 2L)).toDF("s", "p", "o"),
      Seq((0L, 0), (1L, 1), (2L, 2)).toDF("id", "ntype"))
    val h = SubgraphQuality.neighbourTypeEntropy(chain)
    val expected = -(2.0 / 3 * math.log(2.0 / 3) + 1.0 / 3 * math.log(1.0 / 3)) / math.log(2)
    assert(math.abs(h - expected) < 1e-9)
  }

  test("entropy of an edgeless graph is zero") {
    val empty = KG(TestKGs.yago3.schema,
      Seq.empty[(Long, Int, Long)].toDF("s", "p", "o"),
      Seq((0L, 0)).toDF("id", "ntype"))
    assert(SubgraphQuality.neighbourTypeEntropy(empty) == 0.0)
  }

  test("measure handles a subgraph containing no targets") {
    val q = SubgraphQuality.measure(star, Seq(Tuple1(99L)).toDF("id"))
    assert(q.targetPct == 0.0)
    assert(q.targetDisconPct == 100.0)
    assert(q.avgDistToTarget == 0.0)
  }

  test("diverse neighbourhoods score higher entropy than monotone ones") {
    val urw = repro.sampling.URW.sample(TestKGs.yago, bs = 60, h = 3, seed = 2)
    val full = SubgraphQuality.neighbourTypeEntropy(TestKGs.yago)
    assert(full > 0.0)
    assert(SubgraphQuality.neighbourTypeEntropy(urw) >= 0.0)
  }

  /** The undirected adjacency of a ``triples`` table, built in DuckDB. */
  private val duckAdj =
    """adj AS (SELECT CAST(s AS BIGINT) AS u, CAST(o AS BIGINT) AS v FROM triples
      |        UNION ALL SELECT CAST(o AS BIGINT), CAST(s AS BIGINT) FROM triples)""".stripMargin

  test("bfs distances equal DuckDB's recursive reachability on YAGO3-lite (oracle)") {
    val kg = TestKGs.yago3
    val roots = RandomWalk.sampleIds(kg.nodesOfType("Person"), 15, seed = 27)
    for (h <- Seq(2, 10))
      Oracle.assertEquivalent(SubgraphQuality.bfsDistances(kg, roots, maxHops = h),
        s"""WITH RECURSIVE $duckAdj,
           |reach(id, dist) AS (SELECT CAST(id AS BIGINT), 0 FROM roots
           |  UNION SELECT a.v, r.dist + 1 FROM reach r JOIN adj a ON a.u = r.id WHERE r.dist < $h)
           |SELECT id, MIN(dist) AS dist FROM reach GROUP BY id""".stripMargin,
        "triples" -> kg.triples.select("s", "o"), "roots" -> roots)
  }

  test("neighbour-type entropy equals DuckDB's histogram of COUNT(DISTINCT ntype) (oracle)") {
    val kg = TestKGs.yago3
    val around = BRW.sample(kg, kg.nodesOfType("Person"), bs = 30, h = 2, seed = 28)
    for (g <- Seq(kg, around))
      Oracle.assertEquivalent(Seq(Tuple1(SubgraphQuality.neighbourTypeEntropy(g))).toDF("h"),
        s"""WITH $duckAdj,
           |per AS (SELECT a.u, COUNT(DISTINCT CAST(n.ntype AS INT)) AS cnt
           |        FROM adj a JOIN nodes n ON a.v = CAST(n.id AS BIGINT) GROUP BY a.u),
           |hist AS (SELECT cnt, CAST(COUNT(*) AS DOUBLE) AS freq FROM per GROUP BY cnt),
           |tot AS (SELECT SUM(freq) AS n FROM hist)
           |SELECT COALESCE(SUM(-(freq / n) * LN(freq / n) / LN(2)), 0.0) AS h FROM hist, tot""".stripMargin,
        "triples" -> g.triples.select("s", "o"), "nodes" -> g.nodeTypes)
  }
}
