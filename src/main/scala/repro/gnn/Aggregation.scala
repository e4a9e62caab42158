package repro.gnn

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.kg.KG

/** Spark-side message passing: L rounds of mean aggregation of neighbour
  * features over the undirected view. This is the computation whose cost
  * scales with |V|+|E| in every HGNN method; the trainers decouple it from
  * the classifier head exactly as SeHGNN does (aggregate once, then train).
  *
  * The aggregation is relation-blind: every edge counts the same whatever
  * its predicate. Each hop is its own shallow query over a materialised
  * previous hop, so every hop of every graph runs the same plan shape
  * (DESIGN.md §5.5).
  */
object Aggregation {

  /** Undirected adjacency ``(u, v)`` of ``g`` (duplicate edges kept).
    *
    * @param fanoutCap if set, each node keeps at most this many
    *                  (hash-chosen) neighbours — ShaDow-GNN's bounded-scope
    *                  ego-graph approximation
    */
  def adjacency(g: KG, fanoutCap: Option[Int] = None, seed: Int = 11): DataFrame = {
    // no edge has a null end; coalesce says so in the schema, so hop tables
    // (keyed by u) have the feature table's non-null id and every hop runs
    // the same generated code
    val und = g.undirected.select(coalesce(col("u"), lit(-1L)) as "u", coalesce(col("v"), lit(-1L)) as "v")
    fanoutCap match {
      case Some(c) =>
        val w = Window.partitionBy(col("u")).orderBy(KG.hashRand(seed, col("u"), col("v")), col("v"))
        und.withColumn("rk", row_number().over(w)).filter(col("rk") <= c).select(col("u"), col("v"))
      case None => und
    }
  }

  /** One hop: for every node ``u`` with a neighbour in ``prev``, the mean of
    * its neighbours' rows of ``prev`` (``id`` plus feature columns). Output
    * has ``prev``'s columns; nodes with no neighbours have no row.
    */
  def hop(adj: DataFrame, prev: DataFrame): DataFrame = {
    val fs = prev.columns.filter(_ != "id").toSeq
    adj.join(prev.withColumnRenamed("id", "v"), "v")
      .groupBy(col("u") as "id")
      .agg(avg(fs.head) as fs.head, fs.tail.map(c => avg(c) as c): _*)
  }

  /** Hop tables ``h0 = feats, h1 .. hL`` over adjacency ``adj``, each
    * ``(id, f*)``; every ``hk`` (k ≥ 1) is materialised before the next
    * hop reads it, so no hop query nests another.
    */
  def hops(adj: DataFrame, feats: DataFrame, l: Int): Seq[DataFrame] =
    (1 to l).scanLeft(feats)((prev, _) => hop(adj, prev).localCheckpoint())

  /** Aggregate ``feats`` (``id, f0..f{F-1}``) over ``g`` for ``L`` hops.
    * Returns ``(id, f*, h1_*, .., hL_*)`` for every node of ``feats``;
    * nodes with no neighbours get zero-filled hop columns.
    */
  def aggregate(g: KG, feats: DataFrame, l: Int,
                fanoutCap: Option[Int] = None, seed: Int = 11): DataFrame = {
    val fs = feats.columns.filter(_ != "id").toSeq
    hops(adjacency(g, fanoutCap, seed), feats, l).zipWithIndex.tail.foldLeft(feats) { case (wide, (h, k)) =>
      wide.join(h.select(col("id") +: fs.map(c => col(c) as s"h${k}_$c"): _*), Seq("id"), "left")
    }.na.fill(0.0)
  }
}
