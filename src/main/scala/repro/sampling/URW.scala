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
  def sample(kg: KG, bs: Int, h: Int, seed: Int): KG = {
    val roots = RandomWalk.sampleIds(kg.nodeTypes.select("id"), bs, seed)
    val adj = kg.undirected
    val vs = RandomWalk.visited(adj, roots, h, seed)
    Induce.extractSubgraph(kg, vs)
  }

  /** Visited node set only (no induction): the node set of a GraphSAINT
    * mini-batch.
    */
  def visitedSet(kg: KG, bs: Int, h: Int, seed: Int): DataFrame = {
    val roots = RandomWalk.sampleIds(kg.nodeTypes.select("id"), bs, seed)
    RandomWalk.visited(kg.undirected, roots, h, seed)
  }
}
