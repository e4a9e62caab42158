package repro.gnn

import org.apache.spark.sql.functions.col

import repro.{SparkSpec, TestKGs}
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

  test("RGCN accounting charges full-batch memory") {
    val kg = TestKGs.yago3
    val a = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 1)
    val b = LinkPred.train(kg, Tasks.CA_YAGO3, "RGCN", epochs = 1)
    assert(b.memoryBytes > a.memoryBytes)
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
      kg.triples.orderBy(KG.hashRand(31, col("s"), col("p"), col("o"))), kg.nodeTypes)
    val a = LinkPred.train(kg, Tasks.CA_YAGO3, "MorsE", epochs = 4)
    val b = LinkPred.train(shuffled, Tasks.CA_YAGO3, "MorsE", epochs = 4)
    assert(a.hits10 == b.hits10, s"hits@10 ${a.hits10} vs ${b.hits10} after reordering")
  }

  test("unknown LP methods are rejected") {
    intercept[IllegalArgumentException](
      LinkPred.train(TestKGs.yago3, Tasks.CA_YAGO3, "TuckER"))
  }
}
