package repro.sampling

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import repro.kg.KG

/** Random-walk engine shared by the GraphSAINT trainer, the URW baseline and
  * BRW, over RDDs.
  *
  * Each root spawns one walker; every step each live walker moves to one
  * uniformly-chosen neighbour on [[KG.adjacency]], each edge both ways
  * (GraphSAINT's walk semantics). All randomness is hash-based
  * ([[KG.bucket]], the twin of the Column ``KG.hashBucket``), so a walk is a
  * pure function of (graph, roots, h, seed), whatever the partitioning.
  */
object RandomWalk {

  /** Deterministically sample ``n`` ids by hash order, least
    * ``(bucket(seed, id), id)`` first (stands in for uniform-without-
    * replacement sampling): one Spark job.
    */
  def sampleIds(ids: RDD[Long], n: Int, seed: Int): Array[Long] =
    ids.map(id => (KG.bucket(seed, id), id)).takeOrdered(n).map(_._2)

  /** [[sampleIds]] of a single-column ``id`` DF, as a local ``id`` DF. */
  def sampleIds(ids: DataFrame, n: Int, seed: Int): DataFrame = {
    val spark = ids.sparkSession
    import spark.implicits._
    sampleIds(KG.ids(ids), n, seed).toSeq.toDF("id")
  }

  private val VBits = 40

  /** Nodes visited by walkers rooted at ``roots`` performing ``h`` uniform
    * steps over the adjacency ``adj`` of ``(v, u)`` pairs (a walker at ``u``
    * may step to ``v``). Returns the distinct ids, roots included, sorted.
    *
    * The walk state lives on the driver: the frontier holds one entry per
    * live walker and the result at most ``|roots| · (h + 1)`` ids, both
    * bounded by the roots, not by the graph. Step ``k`` is one job: each
    * partition of ``adj`` keeps, per walker standing on one of its ``u``,
    * the least candidate (draw, v) packed in one long (the draw
    * ``bucket(seed * 1000 + k, walker, v)`` above v's 40 bits; node ids are
    * < 2^40), and the driver keeps the least over partitions.
    */
  def visited(adj: RDD[(Long, Long)], roots: Array[Long], h: Int, seed: Int): Array[Long] = {
    var frontier = roots.map(id => (id, id)) // (walker, cur)
    val seen = mutable.Set(roots.toSeq: _*)
    var step = 0
    while (step < h && frontier.nonEmpty) {
      step += 1
      val salt = seed * 1000 + step
      val walkersAt = frontier.groupBy(_._2).map { case (c, ws) => c -> ws.map(_._1) }
      val best = adj.mapPartitions { pairs =>
        val m = mutable.HashMap.empty[Long, Long]
        for ((v, u) <- pairs; ws <- walkersAt.get(u); w <- ws) {
          val key = (KG.bucket(salt, w, v).toLong << VBits) + v
          if (m.get(w).forall(key < _)) m(w) = key
        }
        Iterator(m)
      }.collect().foldLeft(mutable.HashMap.empty[Long, Long]) { (a, b) =>
        b.foreach { case (w, key) => if (a.get(w).forall(key < _)) a(w) = key }
        a
      }
      frontier = best.iterator.map { case (w, key) => (w, key & ((1L << VBits) - 1)) }.toArray
      seen ++= frontier.iterator.map(_._2)
    }
    seen.toArray.sorted
  }
}
