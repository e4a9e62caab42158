package repro.gnn

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestKGs}
import repro.kg.KG
import repro.synth.Tasks

class TrainersSpec extends SparkSpec {

  private val fast = TrainParams(epochs = 25, batches = 3, rootsPerBatch = 120)
  private val cc = repro.synth.NCTask("CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1))

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

  test("ShaDowSAINT trains with a fanout cap") {
    val r = Trainers.train("ShaDowSAINT", TestKGs.yago3, repro.synth.NCTask(
      "CC", "YAGO3-10", "Person", 5, repro.synth.RandomSplit, (0.8, 0.1, 0.1)), fast)
    assert(r.accuracy >= 0.0 && r.accuracy <= 1.0)
  }

  test("the softmax head reports a finite training loss below chance's ln(labels)") {
    val r = Trainers.train("SeHGNN", TestKGs.dblp, Tasks.PV_DBLP, fast)
    assert(!r.headLoss.isNaN && !r.headLoss.isInfinite, s"${r.headLoss}")
    assert(r.headLoss < math.log(Tasks.PV_DBLP.numLabels), s"${r.headLoss}")
  }

  test("per-seed accuracies and batch sizes equal the values pinned from the SQL hop tables") {
    // (graph, method, seed) -> (accuracy, trainExamples), as the previous
    // DataFrame kernel computed them
    val pinned = Seq(
      ("yago3", "GraphSAINT", 7, 0.55, 247L), ("yago3", "GraphSAINT", 8, 0.5, 248L),
      ("yago3", "GraphSAINT", 9, 0.65, 224L),
      ("yago3", "SeHGNN", 7, 0.7, 208L), ("yago3", "SeHGNN", 8, 0.7, 208L), ("yago3", "SeHGNN", 9, 0.7, 208L),
      ("dblp", "GraphSAINT", 7, 0.803030303030303, 254L), ("dblp", "GraphSAINT", 8, 0.7424242424242424, 251L),
      ("dblp", "GraphSAINT", 9, 0.7727272727272727, 257L),
      ("dblp", "SeHGNN", 7, 0.9848484848484849, 474L), ("dblp", "SeHGNN", 8, 0.9848484848484849, 474L),
      ("dblp", "SeHGNN", 9, 0.9848484848484849, 474L))
    for ((graph, method, seed, acc, examples) <- pinned) {
      val (kg, task) = if (graph == "yago3") (TestKGs.yago3, cc) else (TestKGs.dblp, Tasks.PV_DBLP)
      val r = Trainers.train(method, kg, task, fast.copy(seed = seed))
      assert((r.accuracy, r.trainExamples) == (acc, examples), s"$graph $method seed $seed")
    }
  }

  test("a one-batch GraphSAINT call runs at most 6 Spark jobs") {
    val kg = TestKGs.yago3 // built outside the counted block
    // the targets' job also counts the graph, so the call runs no stats job
    val (_, jobs) = countJobs(Trainers.train("GraphSAINT", kg, cc, fast.copy(batches = 1, l = 2, walkLen = 2)))
    assert(jobs <= 6, s"$jobs jobs")
  }

  test("a failing call frees every RDD it persisted") {
    val kg = TestKGs.yago3
    // inference reads this graph's edges after training holds g's tables
    val poisoned = KG(kg.schema,
      kg.triples.select(col("s"), col("p"), raise_error(lit("poisoned edge")).cast("long") as "o"), kg.nodeTypes)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    val e = intercept[Exception](Trainers.train("GraphSAINT", kg, cc, fast, evalGraph = Some(poisoned)))
    assert(e.getMessage.contains("poisoned edge"), e.getMessage)
    assert(sc.getPersistentRDDs.size == before)
  }

  test("unknown methods are rejected") {
    for (method <- Seq("GAT", "RGCN"))
      intercept[IllegalArgumentException](
        Trainers.train(method, TestKGs.yago3, Tasks.PV_DBLP.copy(kgName = "YAGO3-10", targetType = "Person"), fast))
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
