package repro.sampling

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.kg.KG

/** DataFrame random-walk engine shared by the URW baseline and BRW.
  *
  * Each root spawns one walker; every step each live walker moves to one
  * uniformly-chosen neighbour on the undirected view (GraphSAINT's walk
  * semantics). All randomness is hash-based, so a walk is a pure function
  * of (graph, roots, h, seed).
  */
object RandomWalk {

  /** One-row table ``(salt: Int)``, marked for broadcast: a seed as data,
    * so the code of a query that reads it does not change with the seed.
    */
  private def saltTable(spark: SparkSession, salt: Int): DataFrame = {
    import spark.implicits._
    broadcast(Seq(salt).toDF("salt"))
  }

  /** Deterministically sample ``n`` rows from a single-column ``id`` DF by
    * hash order (stands in for uniform-without-replacement sampling).
    */
  def sampleIds(ids: DataFrame, n: Int, seed: Int): DataFrame =
    ids.crossJoin(saltTable(ids.sparkSession, seed))
      .orderBy(KG.hashRand(col("salt"), col("id")), col("id")).limit(n)
      .select(col("id"))

  private val VBits = 40

  /** Nodes visited by walkers rooted at ``roots`` performing ``h`` uniform
    * steps over undirected adjacency ``adj`` (columns ``u``, ``v``).
    * Returns a distinct single-column ``id`` DF including the roots.
    *
    * The walk state lives on the driver: the frontier holds one row per
    * live walker and the result at most ``|roots| · (h + 1)`` ids, both
    * bounded by the roots, not by the graph. Each step is one query, the
    * adjacency joined to the broadcast frontier, whose rows carry step
    * ``k``'s salt ``seed * 1000 + k`` as data: every step of every seed
    * runs the same generated code.
    */
  def visited(adj: DataFrame, roots: DataFrame, h: Int, seed: Int): DataFrame = {
    val spark = roots.sparkSession
    import spark.implicits._
    val ids = roots.select(col("id")).as[Long].collect()
    var frontier = ids.map(id => (id, id)) // (walker, cur)
    val seen = mutable.Set(ids: _*)
    var step = 0
    while (step < h && frontier.nonEmpty) {
      step += 1
      val salt = seed * 1000 + step
      // one row per node walked from, so the broadcast keys are unique on
      // every step (the hash join's generated code depends on that)
      val f = broadcast(frontier.groupBy(_._2).toSeq.map { case (c, ws) => (c, ws.map(_._1).toSeq, salt) }
        .toDF("cur", "walkers", "salt"))
      // one uniform neighbour per walker: the least (draw, v), packed in one
      // long (the draw's bucket above v's 40 bits; node ids are < 2^40), so
      // the choice is a plain hash aggregate
      val key = shiftleft(KG.hashBucket(col("salt"), col("walker"), col("v")).cast("long"), VBits) + col("v")
      frontier = adj.join(f, col("u") === col("cur"))
        .select(explode(col("walkers")) as "walker", col("v"), col("salt"))
        .groupBy(col("walker"))
        .agg(min(key) as "m")
        .select(col("walker"), col("m").bitwiseAND((1L << VBits) - 1))
        .as[(Long, Long)].collect()
      seen ++= frontier.iterator.map(_._2)
    }
    seen.toSeq.sorted.toDF("id")
  }
}
