package repro.metrics

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import repro.kg.{KG, NodeJoin}

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
    * ``(id, dist)`` for every node within ``maxHops``, partitioned as ``adj``
    * and persisted (the caller frees it), with the number of nodes at each
    * distance. Level ``k`` is one job: a [[NodeJoin.hop]] of ``adj`` past the
    * nodes at distance ``k − 1`` shuffles their distinct neighbours, and a
    * [[NodeJoin.probe]] against the distances so far keeps the new ones.
    * The levels stop at the first that reaches no new node.
    */
  private[metrics] def bfs(adj: RDD[(Long, Long)], sources: RDD[Long], maxHops: Int): (RDD[(Long, Int)], Seq[Long]) = {
    val part = adj.partitioner.get
    var dist = NodeJoin.reduce(sources.map(id => (id, 0)), part)((d, _) => d).persist()
    val sizes = ArrayBuffer(dist.count())
    while (sizes.size <= maxHops && sizes.last > 0) {
      val hop = sizes.size
      val reached = NodeJoin.hop[Int, Int](adj, dist.filter(_._2 == hop - 1))(_ => hop, (d, _) => d, (d, _) => d)
      val next = NodeJoin.probe(reached, dist, keyed = true) { (us, known) =>
        known.iterator ++ us.filter { case (u, _) => !known.contains(u) }
      }.persist()
      sizes += next.count() - sizes.sum
      dist.unpersist(blocking = false)
      dist = next
    }
    (dist, sizes.toSeq)
  }

  /** [[bfs]] over ``g`` from the ids of ``sources`` (a single-column ``id``
    * DF), as an ``(id, dist)`` DF that holds nothing persisted: a read
    * recomputes the last level from the levels' shuffle output.
    */
  def bfsDistances(g: KG, sources: DataFrame, maxHops: Int = 10): DataFrame = {
    val spark = sources.sparkSession
    import spark.implicits._
    val (dist, _) = bfs(g.adjacency(), KG.ids(sources), maxHops)
    dist.unpersist(blocking = false).toDF("id", "dist")
  }

  /** Shannon entropy (Eq. 2) of the distribution of per-node neighbour-type
    * counts over ``adj``: higher = more diverse neighbourhood structure. One
    * [[NodeJoin.hop]] of ``adj`` past the node types gathers each node's set
    * of neighbour types.
    */
  private def entropy(adj: RDD[(Long, Long)], nodeTypes: DataFrame): Double = {
    val types = nodeTypes.select("id", "ntype").queryExecution.toRdd
      .map(r => (r.getLong(0), r.getInt(1))).partitionBy(adj.partitioner.get)
    val hist = NodeJoin.hop[Int, Set[Int]](adj, types)(Set(_), _ + _, _ ++ _)
      .values.map(_.size).countByValue()
    val total = hist.values.sum.toDouble
    hist.values.iterator.map { n => val p = n / total; -p * math.log(p) / math.log(2.0) }.sum
  }

  /** [[entropy]] over ``g``'s adjacency and node types. */
  def neighbourTypeEntropy(g: KG): Double = entropy(g.adjacency(), g.nodeTypes)

  /** All Table III indicators for subgraph ``g`` w.r.t. target set
    * ``targets`` (ids from the full KG; intersected with ``g``'s nodes).
    * The reach and distance figures come from the BFS level sizes alone:
    * every target of ``g`` is a source at level 0, and a node at level
    * k ≥ 1 is an end of one of ``g``'s triples, so it has a type row in
    * ``g`` and is no target. Holds ``g``'s adjacency for the BFS and the
    * entropy, and frees it before it returns or throws.
    */
  def measure(g: KG, targets: DataFrame, maxHops: Int = 10): Quality = {
    val st = g.stats
    val adj = g.adjacency().persist()
    try {
      val part = adj.partitioner.get
      val tgt = NodeJoin.reduce(KG.ids(targets).map(id => (id, ())), part)((a, _) => a)
      val targetsIn = NodeJoin.join(KG.ids(g.nodeTypes).map(id => (id, ())).partitionBy(part), tgt).keys
      val (dist, sizes) = bfs(adj, targetsIn, maxHops)
      dist.unpersist(blocking = false)
      val nTargets = sizes.head
      val nNonTargets = st.nodes - nTargets
      // non-target nodes reached from the targets, and their distance sum
      val reached = sizes.tail.sum
      val distSum = sizes.indices.map(k => k * sizes(k)).sum
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
