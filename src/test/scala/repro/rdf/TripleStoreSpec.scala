package repro.rdf

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestKGs}

class TripleStoreSpec extends SparkSpec {

  private lazy val store = new TripleStore(TestKGs.yago3)
  private lazy val schema = TestKGs.yago3.schema

  test("type triples cover every node exactly once with class-node objects") {
    val tt = store.typeTriples
    assert(tt.count() == TestKGs.yago3.nodeTypes.count())
    val badP = tt.filter(col("p") =!= schema.typeP).count()
    assert(badP == 0)
    val badO = tt.filter(col("o") < schema.totalNodes).count()
    assert(badO == 0)
  }

  test("resolve maps each IRI family to the right id space") {
    assert(store.resolve(IRI("rel:livesIn")) == schema.edgeType("livesIn").id.toLong)
    assert(store.resolve(IRI("rdf:type")) == schema.typeP.toLong)
    assert(store.resolve(IRI("type:Person")) == schema.classNode(schema.nodeType("Person").id))
    assert(store.resolve(IRI("node:42")) == 42L)
  }

  test("resolve rejects unknown names and families") {
    intercept[NoSuchElementException](store.resolve(IRI("rel:bogus")))
    intercept[NoSuchElementException](store.resolve(IRI("type:Bogus")))
    intercept[IllegalArgumentException](store.resolve(IRI("urn:whatever")))
  }

  test("warm materialises and close releases without breaking reads") {
    val s2 = new TripleStore(TestKGs.yago3)
    s2.warm()
    assert(s2.typeTriples.count() > 0)
    s2.close()
    assert(s2.triples.count() > 0)
  }
}
