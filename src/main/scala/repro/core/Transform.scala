package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.kg.KG
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

  /** Transform a (sub)graph to dense-indexed adjacency, materialised and
    * cached; wall-clock time covers the whole job.
    */
  def toAdjacency(g: KG): Transformed = {
    val ((nodes, edges, nNodes, nEdges, nRels), secs) = timed {
      val nodes = g.nodeTypes
        .withColumn("nid", row_number().over(Window.orderBy(col("id"))).cast("long") - 1)
        .select(col("nid"), col("id"), col("ntype"))
        .cache()
      val sMap = nodes.select(col("id") as "s", col("nid") as "src")
      val oMap = nodes.select(col("id") as "o", col("nid") as "dst")
      val edges = g.triples
        .join(sMap, "s")
        .join(oMap, "o")
        .select(col("src"), col("p"), col("dst"))
        .cache()
      val nNodes = nodes.count()
      val nEdges = edges.count()
      val nRels = edges.select(col("p")).distinct().count()
      (nodes, edges, nNodes, nEdges, nRels)
    }
    Transformed(nodes, edges, secs, nNodes, nEdges, nRels)
  }
}
