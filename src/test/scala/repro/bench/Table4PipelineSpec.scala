package repro.bench

import repro.{SparkSpec, TestKGs}
import repro.core.{GraphPattern, KGTOSA, Transform}
import repro.gnn.{TrainParams, Trainers}
import repro.rdf.{Endpoint, TripleStore}
import repro.synth.Tasks

/** Table IV's FG-vs-KG' pipeline for PV/MAG at unit scale, step by step as
  * `Table4.run` runs it: transform FG, then GraphSAINT; d1h1 extraction,
  * then transform KG', then GraphSAINT.
  */
class Table4PipelineSpec extends SparkSpec {

  test("PV/MAG: FG and KG' pipelines train, and KG' is no larger than FG") {
    val kg = TestKGs.mag
    val task = Tasks.PV_MAG
    val params = TrainParams(epochs = 25, batches = 3, rootsPerBatch = 120)
    val store = new TripleStore(kg).warm()

    val tFg = Transform.toAdjacency(kg)
    val fg = kg.stats
    assert((tFg.nNodes, tFg.nEdges, tFg.nRels) == (fg.nodes, fg.edges, fg.eTypes))
    val rFg = Trainers.train("GraphSAINT", kg, task, params)
    tFg.nodes.unpersist(); tFg.edges.unpersist()

    val ex = KGTOSA.sparqlExtract(new Endpoint(store, 4), task, GraphPattern(1, 1), 2000)
    val tKgp = Transform.toAdjacency(ex.subgraph)
    val kgp = ex.subgraph.stats
    assert((tKgp.nNodes, tKgp.nEdges, tKgp.nRels) == (kgp.nodes, kgp.edges, kgp.eTypes))
    val rKgp = Trainers.train("GraphSAINT", ex.subgraph, task, params)
    tKgp.nodes.unpersist(); tKgp.edges.unpersist()

    for (acc <- Seq(rFg.accuracy, rKgp.accuracy)) assert(acc > 0.0 && acc <= 1.0, s"accuracy $acc")
    assert(kgp.nodes <= fg.nodes && kgp.edges <= fg.edges && kgp.eTypes <= fg.eTypes)
    assert((rKgp.graphNodes, rKgp.graphEdges, rKgp.graphRels) == (kgp.nodes, kgp.edges, kgp.eTypes))
    ex.subgraph.uncache(); store.close()
  }
}
