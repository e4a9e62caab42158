package repro.sampling

import org.apache.spark.sql.DataFrame

import repro.kg.KG

/** GraphSAINT's default uniform random-walk subgraph sampler (URW): roots
  * drawn uniformly from *all* nodes, ignoring node/edge types — the paper's
  * baseline whose samples under-represent target vertices (Figure 2).
  */
object URW {

  /** Sample a subgraph: ``bs`` uniform roots, ``h``-step walks, induced
    * edges over the visited set.
    */
  def sample(kg: KG, bs: Int, h: Int, seed: Int): KG = Induce.extractSubgraph(kg, visited(kg, bs, h, seed))

  /** Visited node set only (no induction): the node set of a GraphSAINT
    * mini-batch, as a local ``id`` DF.
    */
  def visitedSet(kg: KG, bs: Int, h: Int, seed: Int): DataFrame = {
    val spark = kg.triples.sparkSession
    import spark.implicits._
    visited(kg, bs, h, seed).toSeq.toDF("id")
  }

  private def visited(kg: KG, bs: Int, h: Int, seed: Int): Array[Long] =
    RandomWalk.visited(kg.adjacency(), RandomWalk.sampleIds(KG.ids(kg.nodeTypes), bs, seed), h, seed)
}
