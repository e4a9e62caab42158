package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.kg.KG

/** Induced-subgraph extraction — ``extractSubgraph(V_s, KG)`` of
  * Algorithm 1 line 7 / Algorithm 2 line 5: keep every KG edge whose both
  * endpoints are in the sampled node set.
  */
object Induce {

  /** Induce the subgraph of ``kg`` on the node set ``vs``: a filter of both
    * tables against ``vs`` broadcast as a sorted array, as a GraphSAINT batch
    * filters its adjacency (no join). Node-type rows are kept for all of
    * ``vs`` (isolated sampled nodes stay, so disconnection statistics see
    * them).
    */
  def extractSubgraph(kg: KG, vs: Array[Long]): KG = {
    val set = kg.triples.sparkSession.sparkContext.broadcast(vs.distinct.sorted)
    val in = udf((id: Long) => java.util.Arrays.binarySearch(set.value, id) >= 0)
    KG(kg.schema, kg.triples.filter(in(col("s")) && in(col("o"))), kg.nodeTypes.filter(in(col("id"))))
  }

  /** [[extractSubgraph]] on the ids of a single-column ``id`` DF, collected
    * to the driver: a sampler's node set, bounded by its roots.
    */
  def extractSubgraph(kg: KG, vs: DataFrame): KG = extractSubgraph(kg, KG.ids(vs).collect())
}
