package repro.sampling

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import repro.kg.{KG, NodeJoin}

/** Personalized PageRank via power iteration on the degree-normalised
  * adjacency (each edge both ways), with teleport mass spread uniformly over a
  * seed set (the task's target vertices). Stands in for the
  * push-based approximate PPR of Andersen et al. used by IBS — the scores
  * it induces over h-hop neighbourhoods rank nodes identically in the
  * large-iteration limit.
  */
object PPR {

  /** PPR scores ``(id, score)`` personalised to the distinct ``roots``, over
    * ``adj`` (as made by [[KG.adjacency]]) and partitioned as it is. With
    * ``t = 1 / |roots|``, ``π0`` is ``t`` on each root, and each iteration
    * gives ``π'(v) = (1 − α) Σ π(u) / deg(u)`` over the pairs ``(u, v)``, plus
    * ``α t`` on each root. The degrees are counted in each partition of
    * ``adj`` (it is partitioned by ``u``), ``π / deg`` is a [[NodeJoin.join]]
    * and the sum per ``v`` one [[NodeJoin.hop]] of ``adj`` past it: one
    * shuffle into ``adj``'s partitioner. The teleport mass comes from the
    * broadcast roots. Lazy: the chain runs as one job when the caller acts on
    * the result.
    *
    * @param alpha teleport probability (paper uses 0.1–0.25)
    * @param iters power iterations (each costs one shuffle)
    */
  def scores(adj: RDD[(Long, Long)], roots: Array[Long], alpha: Double, iters: Int): RDD[(Long, Double)] = {
    val part = adj.partitioner.get
    val sorted = roots.distinct.sorted
    val t = 1.0 / math.max(1, sorted.length)
    val seeds = adj.sparkContext.broadcast(sorted)
    val deg = adj.mapPartitions(ps => NodeJoin.merged(ps.map { case (u, _) => (u, 1L) })(_ + _),
      preservesPartitioning = true)
    // each partition adds α t to its roots: to their walk mass, or alone
    def teleport(walk: RDD[(Long, Double)]): RDD[(Long, Double)] = walk.mapPartitionsWithIndex({ (i, it) =>
      val rs = seeds.value
      val hit = new mutable.BitSet(rs.length)
      it.map { case (v, inw) =>
        val r = java.util.Arrays.binarySearch(rs, v)
        if (r >= 0) { hit += r; (v, inw * (1.0 - alpha) + alpha * t) } else (v, inw * (1.0 - alpha))
      } ++ rs.indices.iterator.filter(r => !hit(r) && part.getPartition(rs(r)) == i).map(r => (rs(r), alpha * t))
    }, preservesPartitioning = true)
    val pi0 = adj.sparkContext.parallelize(sorted.toSeq.map(_ -> t)).partitionBy(part)
    (1 to iters).foldLeft(pi0) { (pi, _) =>
      val spread = NodeJoin.join(deg, pi).mapValues { case (d, s) => s / d }
      teleport(NodeJoin.hop[Double, Double](adj, spread)(identity, _ + _, _ + _))
    }
  }

  /** [[scores]] over ``kg``'s adjacency, personalised to the ids of
    * ``seeds`` (a single-column ``id`` DF, collected: a root sample), as a
    * lazy ``(id, score)`` DF that holds nothing persisted.
    */
  def scores(kg: KG, seeds: DataFrame, alpha: Double = 0.25, iters: Int = 8): DataFrame = {
    val spark = seeds.sparkSession
    import spark.implicits._
    scores(kg.adjacency(), KG.ids(seeds).collect(), alpha, iters).toDF("id", "score")
  }
}
