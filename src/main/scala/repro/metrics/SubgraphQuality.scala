package repro.metrics

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import repro.kg.KG

/** The Table III quality indicators of an extracted subgraph. */
final case class Quality(
    nodes: Long,            // |KG'| node count
    targetPct: Double,      // data sufficiency: % of nodes that are targets
    cPrime: Long,           // |C'| node types present
    rPrime: Long,           // |R'| edge types present
    targetDisconPct: Double,// % of non-target nodes unreachable from V_T
    avgDistToTarget: Double,// mean BFS distance of reachable non-targets
    avgEntropy: Double,     // Shannon entropy of neighbour-type-count dist (Eq. 2)
)

/** Computes the paper's data-sufficiency and graph-topology indicators
  * (Section III-A / Table III) for a subgraph, over its adjacency
  * ([[KG.adjacency]]).
  */
object SubgraphQuality {

  /** BFS levels from ``sources`` over ``adj`` (as made by [[KG.adjacency]]):
    * ``(id, dist)`` for every node within ``maxHops``, partitioned as ``adj``.
    * Level ``k`` expands the nodes at distance ``k − 1`` through a join with
    * ``adj`` that needs no shuffle and keeps each node's least distance in one
    * shuffle. Lazy: the levels run as one job when the caller acts.
    */
  private def bfs(adj: RDD[(Long, Long)], sources: RDD[Long], maxHops: Int): RDD[(Long, Int)] = {
    val part = adj.partitioner.get
    (1 to maxHops).foldLeft(sources.map(id => (id, 0)).reduceByKey(part, math.min(_, _))) { (dist, hop) =>
      val next = adj.join(dist.filter(_._2 == hop - 1)).values.map { case (v, _) => (v, hop) }
      dist.union(next).reduceByKey(part, math.min(_, _))
    }
  }

  /** [[bfs]] over ``g`` from the ids of ``sources`` (a single-column ``id``
    * DF), as an ``(id, dist)`` DF.
    */
  def bfsDistances(g: KG, sources: DataFrame, maxHops: Int = 10): DataFrame = {
    val spark = sources.sparkSession
    import spark.implicits._
    bfs(g.adjacency(), KG.ids(sources), maxHops).toDF("id", "dist")
  }

  /** Shannon entropy (Eq. 2) of the distribution of per-node neighbour-type
    * counts over ``adj``: higher = more diverse neighbourhood structure. One
    * join with the node types that needs no shuffle, then one shuffle that
    * gathers each node's set of neighbour types.
    */
  private def entropy(adj: RDD[(Long, Long)], nodeTypes: DataFrame): Double = {
    val part = adj.partitioner.get
    val types = nodeTypes.select("id", "ntype").queryExecution.toRdd
      .map(r => (r.getLong(0), r.getInt(1))).partitionBy(part)
    val hist = adj.join(types).values
      .combineByKey[Set[Int]](Set(_), _ + _, _ ++ _)
      .values.map(_.size).countByValue()
    val total = hist.values.sum.toDouble
    hist.values.iterator.map { n => val p = n / total; -p * math.log(p) / math.log(2.0) }.sum
  }

  /** [[entropy]] over ``g``'s adjacency and node types. */
  def neighbourTypeEntropy(g: KG): Double = entropy(g.adjacency(), g.nodeTypes)

  /** All Table III indicators for subgraph ``g`` w.r.t. target set
    * ``targets`` (ids from the full KG; intersected with ``g``'s nodes).
    * Holds ``g``'s adjacency for the BFS and the entropy, and frees it
    * before it returns or throws.
    */
  def measure(g: KG, targets: DataFrame, maxHops: Int = 10): Quality = {
    val st = g.stats
    val adj = g.adjacency().persist()
    try {
      val part = adj.partitioner.get
      val tgt = KG.ids(targets).map(id => (id, ())).partitionBy(part)
      val targetsIn = KG.ids(g.nodeTypes).map(id => (id, ())).partitionBy(part).join(tgt).keys
      val nTargets = targetsIn.count()
      val nNonTargets = st.nodes - nTargets
      // non-target nodes reached from the targets, and their distance sum
      val (reached, distSum) = bfs(adj, targetsIn, maxHops).subtractByKey(tgt).values
        .aggregate((0L, 0L))({ case ((n, s), d) => (n + 1, s + d) }, { case ((n, s), (m, u)) => (n + m, s + u) })
      Quality(
        nodes = st.nodes,
        targetPct = if (st.nodes == 0) 0.0 else 100.0 * nTargets.toDouble / st.nodes,
        cPrime = st.nTypes,
        rPrime = st.eTypes,
        targetDisconPct = if (nNonTargets == 0) 0.0 else 100.0 * (nNonTargets - reached).toDouble / nNonTargets,
        avgDistToTarget = if (reached == 0) 0.0 else distSum.toDouble / reached,
        avgEntropy = entropy(adj, g.nodeTypes),
      )
    } finally adj.unpersist(blocking = false)
  }
}
