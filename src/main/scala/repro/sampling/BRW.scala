package repro.sampling

import org.apache.spark.sql.DataFrame

import repro.kg.KG

/** Biased Random Walk sampling — Algorithm 1.
  *
  * The bias is in root selection: ``getInitialVertices`` draws the ``bs``
  * initial walkers from the task's target set ``V_T`` instead of from all
  * nodes, so the walk expands graph regions centred on target vertices.
  * The induced subgraph (line 7) then interlinks all edges among visited
  * nodes, preserving the task's global structure.
  */
object BRW {

  /** ``BRW_MS(KG, A, h, bs)``: sample roots from ``targets``, walk ``h``
    * steps, induce the subgraph over visited nodes.
    *
    * @param targets ``V_T`` as a single-column ``id`` DF
    */
  def sample(kg: KG, targets: DataFrame, bs: Int, h: Int, seed: Int): KG =
    Induce.extractSubgraph(kg, RandomWalk.visited(kg.adjacency(), RandomWalk.sampleIds(KG.ids(targets), bs, seed), h, seed))
}
