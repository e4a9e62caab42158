package repro.gnn

import org.apache.spark.metrics.source.CodegenMetrics

import repro.{SparkSpec, TestKGs}
import repro.synth.Tasks

class TrainersSpec extends SparkSpec {

  private val fast = TrainParams(epochs = 25, batches = 3, rootsPerBatch = 120)

  test("SeHGNN on DBLP-lite PV beats the majority-class baseline clearly") {
    val r = Trainers.train("SeHGNN", TestKGs.dblp, Tasks.PV_DBLP, fast)
    val chance = 1.0 / Tasks.PV_DBLP.numLabels
    assert(r.accuracy > chance * 3, s"accuracy ${r.accuracy} vs chance $chance")
  }

  test("GraphSAINT returns sane bookkeeping") {
    val r = Trainers.train("GraphSAINT", TestKGs.yago3, repro.synth.NCTask(
      "CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)), fast)
    assert(r.trainSeconds > 0 && r.inferSeconds > 0)
    assert(r.trainExamples > 0)
    assert(r.graphNodes == TestKGs.yago3.nodeTypes.count())
    assert(r.params == MemoryModel.params(r.graphNodes, r.graphRels, 5, fast.l))
  }

  test("GraphSAINT accuracy does not depend on how the KG's tables are partitioned") {
    val task = repro.synth.NCTask("CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1))
    val kg = TestKGs.yago3
    val moved = repro.kg.KG(kg.schema,
      kg.triples.repartition(3).localCheckpoint(true), kg.nodeTypes.repartition(2).localCheckpoint(true))
    assert(moved.triples.rdd.getNumPartitions == 3 && moved.nodeTypes.rdd.getNumPartitions == 2)
    val a = Trainers.train("GraphSAINT", kg, task, fast)
    val b = Trainers.train("GraphSAINT", moved, task, fast)
    assert(a.accuracy == b.accuracy, s"${a.accuracy} vs ${b.accuracy}")
    moved.uncache()
  }

  test("GraphSAINT scores the same on an explicit evalGraph = g as on its shared tables") {
    val task = repro.synth.NCTask("CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1))
    val shared = Trainers.train("GraphSAINT", TestKGs.yago3, task, fast)
    val own = Trainers.train("GraphSAINT", TestKGs.yago3, task, fast, evalGraph = Some(TestKGs.yago3))
    assert(shared.accuracy == own.accuracy, s"${shared.accuracy} vs ${own.accuracy}")
  }

  test("a GraphSAINT call with another seed compiles no new code") {
    val task = repro.synth.NCTask("CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1))
    Trainers.train("GraphSAINT", TestKGs.yago3, task, fast)
    val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    Trainers.train("GraphSAINT", TestKGs.yago3, task, fast.copy(seed = 8))
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before == 0)
  }

  test("RGCN (full-batch) is charged more memory than GraphSAINT (mini-batch)") {
    val rgcn = Trainers.train("RGCN", TestKGs.yago3, repro.synth.NCTask(
      "CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)), fast)
    val saint = Trainers.train("GraphSAINT", TestKGs.yago3, repro.synth.NCTask(
      "CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)), fast)
    assert(rgcn.memoryBytes > saint.memoryBytes)
  }

  test("ShaDowSAINT trains with a fanout cap") {
    val r = Trainers.train("ShaDowSAINT", TestKGs.yago3, repro.synth.NCTask(
      "CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)), fast)
    assert(r.accuracy >= 0.0 && r.accuracy <= 1.0)
  }

  test("unknown methods are rejected") {
    intercept[IllegalArgumentException](
      Trainers.train("GAT", TestKGs.yago3, Tasks.PV_DBLP.copy(kgName = "YAGO3-10", targetType = "Person"), fast))
  }

  test("training on the d1h1 KG' is at least as accurate as on FG (shape claim)") {
    val task = Tasks.AC_DBLP
    val store = new repro.rdf.TripleStore(TestKGs.dblp).warm()
    val endpoint = new repro.rdf.Endpoint(store, 4)
    val ex = repro.core.KGTOSA.sparqlExtract(endpoint, task, repro.core.GraphPattern(1, 1), 100000)
    val fg = Trainers.train("GraphSAINT", TestKGs.dblp, task, fast)
    val kgp = Trainers.train("GraphSAINT", ex.subgraph, task, fast)
    assert(kgp.accuracy >= fg.accuracy - 0.10,
      s"KG' ${kgp.accuracy} vs FG ${fg.accuracy}")
    assert(kgp.memoryBytes < fg.memoryBytes)
    assert(kgp.params < fg.params)
    ex.subgraph.uncache(); store.close()
  }
}
