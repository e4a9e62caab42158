package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.kg.KG

/** Influence-based Sampling — Algorithm 2.
  *
  * ``getInfluenceScore`` is implemented as a single batched Personalized
  * PageRank personalised to ``V_T`` (computing a separate PPR vector per
  * target, as a literal reading of Eq. 3 suggests, is exactly the overhead
  * the paper criticises; the batched score induces the same per-target
  * neighbour ranking over h-hop neighbourhoods — documented in DESIGN.md).
  * ``SelectTopK-Nodes`` ranks each sampled target's ≤``h``-hop neighbours
  * by influence and keeps the top ``k``; the induced subgraph over targets ∪
  * selected neighbours is KG'.
  */
object IBS {

  /** Cap per-hop expansion per target to bound the pair blow-up on dense
    * graphs (the graph-partition role of Algorithm 2 line 4).
    */
  private val HopCap = 64

  /** ``IBS(KG, A, bs, k)``: sample ``bs`` targets, PPR-score the graph,
    * keep each target's top-``k`` influential ≤2-hop neighbours, induce.
    */
  def sample(kg: KG, targets: DataFrame, bs: Int, k: Int,
             alpha: Double = 0.25, seed: Int = 0): KG = {
    val roots = RandomWalk.sampleIds(targets, bs, seed).cache()
    roots.count()
    val inf = PPR.scores(kg, roots, alpha).cache()
    val adj = kg.undirected.cache()

    // hop-1 pairs (target, nbr), influence-capped per target. ``via`` tracks
    // the hop-1 node that connects a selected hop-2 node back to its target,
    // so the induced subgraph keeps every selected node reachable from V_T.
    val byInf = Window.partitionBy(col("t")).orderBy(col("score").desc, col("nbr"))
    val hop1 = roots
      .join(adj, roots("id") === adj("u"))
      .select(col("id") as "t", col("v") as "nbr")
      .join(inf.withColumnRenamed("id", "nbr"), Seq("nbr"), "left")
      .na.fill(0.0, Seq("score"))
      .withColumn("rk", row_number().over(byInf))
      .filter(col("rk") <= HopCap)
      .select(col("t"), col("nbr"), col("nbr") as "via", col("score"))
      .cache() // reused by the hop-2 expansion and the top-k union

    // hop-2 pairs expanded from the capped hop-1 frontier
    val hop2 = hop1
      .select(col("t"), col("nbr") as "mid")
      .join(adj, col("mid") === adj("u"))
      .select(col("t"), col("v") as "nbr", col("mid") as "via")
      .join(inf.withColumnRenamed("id", "nbr"), Seq("nbr"), "left")
      .na.fill(0.0, Seq("score"))
      .withColumn("rk", row_number().over(byInf))
      .filter(col("rk") <= HopCap)
      .select(col("t"), col("nbr"), col("via"), col("score"))

    // SelectTopK-Nodes: per-target top-k by influence over both hops
    val topk = hop1.union(hop2)
      .groupBy(col("t"), col("nbr")).agg(max(struct(col("score"), col("via"))) as "m")
      .select(col("t"), col("nbr"), col("m.via") as "via", col("m.score") as "score")
      .withColumn("rk", row_number().over(byInf))
      .filter(col("rk") <= k)
      .cache() // read twice: nbr and via projections

    val vs = roots.select(col("id"))
      .union(topk.select(col("nbr") as "id"))
      .union(topk.select(col("via") as "id"))
      .distinct()
    val out0 = Induce.extractSubgraph(kg, vs)
    // materialise + flatten before unpersisting the inputs it derives from
    val out = out0.cached()
    roots.unpersist(); inf.unpersist(); adj.unpersist()
    out
  }

  /** Expose the influence scores for tests. */
  def influenceScores(kg: KG, targets: DataFrame, bs: Int, alpha: Double, seed: Int): DataFrame =
    PPR.scores(kg, RandomWalk.sampleIds(targets, bs, seed), alpha)
}
