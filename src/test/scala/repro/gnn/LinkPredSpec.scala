package repro.gnn

import org.apache.spark.sql.functions.col

import repro.{SparkSpec, TestKGs}
import repro.ColumnOracle.hashRand
import repro.kg.KG
import repro.synth.Tasks

class LinkPredSpec extends SparkSpec {

  test("MorsE on YAGO3-lite beats random ranking at Hits@10") {
    val kg = TestKGs.yago3
    val r = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 15)
    // candidates = countries present (≤ 15 at this scale), so random ≥ 10/|C|,
    // but a trained model should be close to the top
    assert(r.hits10 > 0.5, s"hits@10 ${r.hits10}")
    assert(r.testTriples > 0)
  }

  test("LHGNN carries more parameters than MorsE") {
    val kg = TestKGs.yago3
    val a = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 2)
    val b = LinkPred.train(kg, Tasks.CA_YAGO3, "LHGNN", epochs = 2)
    assert(b.params > a.params)
  }

  test("LP on the d2h1 KG' trains with fewer triples than FG") {
    val kg = TestKGs.yago3
    val store = new repro.rdf.TripleStore(kg).warm()
    val endpoint = new repro.rdf.Endpoint(store, 4)
    val ex = repro.core.KGTOSA.sparqlExtractLP(endpoint, Tasks.CA_YAGO3,
      repro.core.GraphPattern(2, 1), 100000)
    val fg = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 10)
    val kgp = LinkPred.train(ex.subgraph, Tasks.CA_YAGO3, "MorsE", epochs = 10)
    assert(kgp.trainTriples < fg.trainTriples)
    assert(kgp.hits10 >= fg.hits10 - 0.15, s"KG' ${kgp.hits10} vs FG ${fg.hits10}")
    ex.subgraph.uncache(); store.close()
  }

  test("training depends on the triple set, not on row order") {
    val kg = TestKGs.yago3
    val shuffled = KG(kg.schema,
      kg.triples.orderBy(hashRand(31, col("s"), col("p"), col("o"))), kg.nodeTypes)
    val a = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 4)
    val b = LinkPred.train(shuffled, Tasks.CA_YAGO3, "MorsE", epochs = 4)
    assert(a.hits10 == b.hits10, s"hits@10 ${a.hits10} vs ${b.hits10} after reordering")
  }

  test("unknown LP methods are rejected") {
    for (method <- Seq("TuckER", "RGCN"))
      intercept[IllegalArgumentException](LinkPred.train(TestKGs.yago3, Tasks.CA_YAGO3, method))
  }

  test("one train call reads its graph in one Spark job") {
    val kg = TestKGs.yago3
    assert(countJobs(LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 1))._2 == 1)
  }

  test("the driver-side holdout is Spark's hashRand filter") {
    for ((kg, task) <- Seq(TestKGs.yago3 -> Tasks.CA_YAGO3, TestKGs.dblp -> Tasks.AA_DBLP)) {
      val p = kg.schema.edgeType(task.predicate).id
      val data = LinkPred.split(LinkPred.read(kg), p, task.ratios._3)
      val pred = kg.triples.filter(col("p") === p)
      val cut = 1.0 - LinkPred.evalFrac(task.ratios._3, pred.count())
      val q = hashRand(9002, col("s"), col("o"))
      val test = pred.filter(q >= cut).collect().map(r => (r.getLong(0), r.getLong(2)))
      val train = kg.triples.filter(col("p") =!= p).union(pred.filter(q < cut)).collect()
        .map(r => (r.getLong(0), r.getInt(1), r.getLong(2)))
      assert(test.nonEmpty, task.name)
      assert(data.test.sameElements(test.sorted), s"${task.name} test edges")
      assert(data.train.sameElements(train.sorted), s"${task.name} train triples")
      assert(data.nodes.length == data.index.size)
      assert(data.nodes.indices.forall(i => data.index(data.nodes(i)) == i))
    }
  }

  test("per-seed Hits@10 equals the values of the Spark-side holdout") {
    // pinned from the Spark-side holdout filter, seeds 13 to 16
    val pinned = Seq(
      ("MorsE", TestKGs.yago3, Tasks.CA_YAGO3, Seq(1.0, 0.8867924528301887, 1.0, 1.0)),
      ("LHGNN", TestKGs.yago3, Tasks.CA_YAGO3,
        Seq(1.0, 0.9811320754716981, 1.0, 1.0)),
      ("MorsE", TestKGs.dblp, Tasks.AA_DBLP, Seq(0.45714285714285713, 0.4, 0.35714285714285715, 0.4714285714285714)),
    )
    for ((m, kg, task, expected) <- pinned; (hits, seed) <- expected.zip(13 to 16))
      assert(LinkPred.train(kg, task, m, seed = seed).hits10 == hits, s"$m ${task.kgName} seed $seed")
  }

  test("filtered MRR is in (0, 1] and credits each Hits@10 hit with at least 1/10") {
    val r = LinkPred.train(TestKGs.dblp, Tasks.AA_DBLP, "MorsE", epochs = 4)
    assert(r.mrr > 0.0 && r.mrr <= 1.0, s"MRR ${r.mrr}")
    // a rank within 10 gives a reciprocal rank of at least 1/10
    assert(r.mrr >= r.hits10 / 10, s"MRR ${r.mrr} vs Hits@10 ${r.hits10}")
  }

  test("a diverged LHGNN does not read as a perfect rank") {
    // this step size overflows the embeddings, so the scores are NaN; a NaN
    // comparison must count against the true object instead of ranking it first
    val r = LinkPred.train(TestKGs.dblp, Tasks.AA_DBLP, "LHGNN", lr = 1e308)
    assert(r.nonFiniteTests > 0, "the scores stayed finite")
    assert(r.hits10 < 1.0, s"hits@10 ${r.hits10}")
  }

  test("LHGNN on DBLP-lite AA keeps every test edge's scores finite at its default step size") {
    // 48 epochs: the update count under which an unbounded projection diverges
    for (epochs <- Seq(12, 48)) {
      val r = LinkPred.train(TestKGs.dblp, Tasks.AA_DBLP, "LHGNN", epochs = epochs)
      assert(r.testTriples > 0 && r.candidates > 10, s"${r.testTriples} test edges, ${r.candidates} candidates")
      assert(r.nonFiniteTests == 0, s"$epochs epochs: ${r.nonFiniteTests} of ${r.testTriples} test edges")
    }
  }
}
