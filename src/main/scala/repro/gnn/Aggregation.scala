package repro.gnn

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

import repro.kg.{KG, NodeJoin}

/** Spark-side message passing: L rounds of mean aggregation of neighbour
  * features over the undirected adjacency ([[KG.adjacency]]). This is the
  * computation whose cost scales with |V|+|E| in every HGNN method; the
  * trainers decouple it from the classifier head exactly as SeHGNN does
  * (aggregate once, then train).
  *
  * The aggregation is relation-blind: every edge counts the same whatever
  * its predicate. It runs on RDDs, which generate no code: the adjacency is
  * ``(v, u)`` pairs and the features ``(id, vector)`` pairs under one hash
  * partitioner, so a hop is one [[NodeJoin.hop]] (a co-partitioned hash join
  * and one shuffle into that partitioner), and L hops cost L shuffles
  * (DESIGN.md §5.5).
  */
object Aggregation {

  /** Node vectors keyed by node id. */
  type Vectors = RDD[(Long, Array[Double])]

  /** [[KG.adjacency]] of ``g`` under ``part``.
    *
    * @param fanoutCap if set, each ``u`` keeps at most this many neighbours,
    *                  the least by ``(bucket(seed, u, v), v)`` — ShaDow-GNN's
    *                  bounded-scope ego-graph approximation
    */
  def adjacency(g: KG, part: Partitioner, fanoutCap: Option[Int] = None, seed: Int = 11): RDD[(Long, Long)] =
    fanoutCap.fold(g.adjacency(part)) { c =>
      // the pairs are symmetric, so the pairs keyed by u list u's neighbours
      g.adjacency(part).groupByKey(part).flatMap { case (u, vs) =>
        vs.toArray.sortBy(v => (KG.bucket(seed, u, v), v)).iterator.take(c).map(v => (v, u))
      }.partitionBy(part)
    }

  /** ``feats`` (``id, f*``) as vectors under ``part``. */
  def vectors(feats: DataFrame, part: Partitioner): Vectors = {
    val fs = feats.columns.filter(_ != "id").map(c => col(c).cast(DoubleType)).toSeq
    val d = fs.size
    feats.select(col("id") +: fs: _*).queryExecution.toRdd
      .map(r => (r.getLong(0), Array.tabulate(d)(j => r.getDouble(j + 1))))
      .partitionBy(part)
  }

  /** Hops ``h0 = feats, h1 .. hL`` over ``adj`` (as made by [[adjacency]]):
    * ``hk(u)`` is the mean of ``h(k-1)(v)`` over the pairs ``(v, u)``, and a
    * node with no such pair has no row. Each hop is one [[NodeJoin.hop]] of
    * ``adj`` past the previous hop (both are partitioned by ``adj``'s
    * partitioner): per ``u`` a sum with the count in one more slot, one
    * shuffle into that partitioner.
    */
  def hops(adj: RDD[(Long, Long)], feats: Vectors, l: Int): Seq[Vectors] =
    (1 to l).scanLeft(feats) { (prev, _) =>
      NodeJoin.hop[Array[Double], Array[Double]](adj, prev)(
        x => { val s = java.util.Arrays.copyOf(x, x.length + 1); s(x.length) = 1.0; s },
        (s, x) => { add(s, x); s(x.length) += 1.0; s },
        (s, t) => { add(s, t); s },
      ).mapValues { s => val d = s.length - 1; Array.tabulate(d)(j => s(j) / s(d)) }
    }

  /** ``into += x`` over ``x``'s length. */
  private def add(into: Array[Double], x: Array[Double]): Unit = {
    var j = 0
    while (j < x.length) { into(j) += x(j); j += 1 }
  }

  /** Aggregate ``feats`` (``id, f0..f{F-1}``) over ``g`` for ``L`` hops.
    * Returns ``(id, f*, h1_*, .., hL_*)`` for every node of ``feats``;
    * nodes with no neighbours get zero-filled hop columns.
    */
  def aggregate(g: KG, feats: DataFrame, l: Int,
                fanoutCap: Option[Int] = None, seed: Int = 11): DataFrame = {
    val spark = feats.sparkSession
    val part = new HashPartitioner(spark.sparkContext.defaultParallelism)
    val fs = feats.columns.filter(_ != "id").toSeq
    val d = fs.size
    val h0 = vectors(feats, part)
    val wide = hops(adjacency(g, part, fanoutCap, seed), h0, l).tail.foldLeft(h0) { (acc, h) =>
      NodeJoin.probe(acc, h, keyed = true) { (rows, hk) =>
        rows.map { case (id, a) => val b = hk.getOrNull(id); (id, a ++ (if (b == null) new Array[Double](d) else b)) }
      }
    }
    val names = fs ++ (1 to l).flatMap(k => fs.map(c => s"h${k}_$c"))
    val schema = StructType(StructField("id", LongType, nullable = false) +:
      names.map(StructField(_, DoubleType, nullable = false)))
    spark.createDataFrame(wide.map { case (id, x) => Row.fromSeq(id +: x.toSeq) }, schema)
  }
}
