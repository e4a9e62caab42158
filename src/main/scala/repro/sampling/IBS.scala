package repro.sampling

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import repro.kg.{KG, NodeJoin}

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

  /** A candidate row of a target: neighbour ``nbr`` with its influence, and
    * ``via``, the hop-1 node that connects it back to the target (``nbr``
    * itself on hop 1), so the induced subgraph keeps every selected node
    * reachable from V_T.
    */
  private final case class Cand(score: Double, nbr: Long, via: Long)

  /** Rank order: score descending, then ``nbr``, then ``via`` descending
    * (rows equal up to ``via`` differ only in the via they would keep).
    */
  private val Ranking: Ordering[Cand] = Ordering.by((c: Cand) => (-c.score, c.nbr, -c.via))(
    Ordering.Tuple3(Ordering.Double.TotalOrdering, Ordering.Long, Ordering.Long))

  /** ``IBS(KG, A, bs, k)``: sample ``bs`` targets, PPR-score the graph,
    * keep each target's top-``k`` influential ≤2-hop neighbours, induce.
    * Returns the subgraph materialised; it frees everything else it
    * persisted.
    */
  def sample(kg: KG, targets: DataFrame, bs: Int, k: Int,
             alpha: Double = 0.25, seed: Int = 0): KG = {
    val roots = RandomWalk.sampleIds(KG.ids(targets), bs, seed)
    val held = ArrayBuffer.empty[RDD[_]]
    def keep[T](rdd: RDD[T]): RDD[T] = { held += rdd; rdd.persist() }
    val vs = try {
      val adj = keep(kg.adjacency())
      val inf = keep(PPR.scores(adj, roots, alpha, iters = 8))
      // hop-1 rows, capped per target; then hop-2 rows from the kept hop-1 rows
      val hop1 = capped(adj, inf, roots.map(t => t -> Seq(t)).toMap, HopCap)
        .map { case (t, cs) => t -> cs.map(c => c.copy(via = c.nbr)) }
      val mids = hop1.toSeq.flatMap { case (t, cs) => cs.map(_.nbr -> t) }.groupMap(_._1)(_._2)
      val hop2 = capped(adj, inf, mids, HopCap)
      // SelectTopK-Nodes: per target and neighbour the row with the max
      // (score, via) (the score is the neighbour's), then the top k
      roots ++ hop1.keys.flatMap { t =>
        (hop1(t) ++ hop2.getOrElse(t, Array.empty[Cand])).groupBy(_.nbr).values.map(_.maxBy(_.via))
          .toArray.sorted(Ranking).take(k).flatMap(c => Seq(c.nbr, c.via))
      }
    } finally held.foreach(_.unpersist(blocking = false))
    Induce.extractSubgraph(kg, vs).cached()
  }

  /** Per target ``t``, its first ``cap`` rows in [[Ranking]] (duplicates
    * count), collected: each pair ``(n, x)`` of ``adj`` with ``x`` a key of
    * ``from`` gives the row ``(score(n), n, via = x)`` to each target of
    * ``from(x)``, once per listing. The adjacency is symmetric, so keying the
    * rows by ``n`` joins the scores in a [[NodeJoin.probe]]; each partition
    * keeps its first ``cap`` rows per target and the driver the first
    * ``cap`` of those, with no shuffle.
    */
  private def capped(adj: RDD[(Long, Long)], inf: RDD[(Long, Double)], from: Map[Long, Seq[Long]],
                     cap: Int): Map[Long, Array[Cand]] = {
    val (b, rank) = (adj.sparkContext.broadcast(from), Ranking) // the closures capture no IBS
    def trim(rows: ArrayBuffer[Cand]): ArrayBuffer[Cand] =
      if (rows.length < 2 * cap) rows
      else { val kept = rows.sorted(rank).take(cap); rows.clear(); rows ++= kept }
    NodeJoin.probe(adj.filter { case (_, x) => b.value.contains(x) }, inf) { (pairs, score) =>
      val rows = mutable.LongMap.empty[ArrayBuffer[Cand]]
      for ((n, x) <- pairs; s = score.getOrElse(n, 0.0); t <- b.value(x))
        trim(rows.getOrElseUpdate(t, ArrayBuffer.empty[Cand]) += Cand(s, n, x))
      rows.iterator.map { case (t, cs) => (t, cs.sorted(rank).take(cap).toArray) }
    }.collect().groupMapReduce(_._1)(_._2)(_ ++ _).map { case (t, cs) => t -> cs.sorted(rank).take(cap) }
  }
}
