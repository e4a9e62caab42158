package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}

import repro.kg.{KG, NodeJoin}
import repro.timed

/** RDF triples → adjacency-matrix form: the mandatory transformation step
  * of every GNN pipeline (Table IV row "Transformation Time"). Nodes get
  * dense 0-based indices; edges are re-expressed over those indices.
  */
final case class Transformed(
    nodes: DataFrame, // (nid: Long, id: Long, ntype: Int)
    edges: DataFrame, // (src: Long, p: Int, dst: Long) over nid space
    seconds: Double,
    nNodes: Long,
    nEdges: Long,
    nRels: Long,
)

object Transform {

  private val nodeSchema = StructType(Seq(
    StructField("nid", LongType, nullable = false),
    StructField("id", LongType, nullable = false),
    StructField("ntype", IntegerType, nullable = false)))

  private val edgeSchema = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("p", IntegerType, nullable = false),
    StructField("dst", LongType, nullable = false)))

  /** Transform a (sub)graph to dense-indexed adjacency, materialised and
    * cached; wall-clock time covers the whole job.
    *
    * ``nid`` is the 0-based rank of ``id``: a range-partitioned sort
    * numbered by ``zipWithIndex``, not a global window, which would move
    * every node to one partition. The id → nid table is hash-partitioned
    * once; the triples are shuffled by ``s``, relabelled by a
    * [[NodeJoin.join]] with it, shuffled by ``o`` and relabelled again. All
    * of it runs as RDD operations, which generate no code (DESIGN.md §5.5).
    */
  def toAdjacency(g: KG): Transformed = {
    val spark = g.triples.sparkSession
    val ((nodes, edges, nNodes, nEdges, nRels), secs) = timed {
      val part = new HashPartitioner(spark.sparkContext.defaultParallelism)
      val ranked = g.nodeTypes.select(col("id"), col("ntype")).queryExecution.toRdd
        .map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1).zipWithIndex()
      val nodes = spark.createDataFrame(ranked.map { case ((id, t), nid) => Row(nid, id, t) }, nodeSchema).cache()
      val nidOf = ranked.map { case ((id, _), nid) => (id, nid) }.partitionBy(part)
      val bySrc = g.triples.select(col("s"), col("p"), col("o")).queryExecution.toRdd
        .map(r => (r.getLong(0), (r.getInt(1), r.getLong(2)))).partitionBy(part)
      val byDst = NodeJoin.join(bySrc, nidOf).map { case (_, ((p, o), src)) => (o, (src, p)) }.partitionBy(part)
      val relabelled = NodeJoin.join(byDst, nidOf).map { case (_, ((src, p), dst)) => Row(src, p, dst) }
      val edges = spark.createDataFrame(relabelled, edgeSchema).cache()
      // counting a cached table per type materialises it: both in one job
      val Seq(perNtype, perP) = KG.countsBy(nodes -> "ntype", edges -> "p")
      (nodes, edges, perNtype.values.sum, perP.values.sum, perP.size.toLong)
    }
    Transformed(nodes, edges, secs, nNodes, nEdges, nRels)
  }
}
