package repro.rdf

import repro.{SparkSpec, TestKGs}

class TripleStoreSpec extends SparkSpec {

  private lazy val store = new TripleStore(TestKGs.yago3)
  private lazy val schema = TestKGs.yago3.schema

  test("resolve maps each IRI family to the right id space") {
    assert(store.resolve(IRI("rel:livesIn")) == schema.edgeType("livesIn").id.toLong)
    assert(store.resolve(IRI("node:42")) == 42L)
  }

  test("resolve rejects unknown names and families") {
    intercept[NoSuchElementException](store.resolve(IRI("rel:bogus")))
    intercept[IllegalArgumentException](store.resolve(IRI("type:Person")))
    intercept[IllegalArgumentException](store.resolve(IRI("urn:whatever")))
  }

  test("reads still work after warm and close") {
    val s2 = new TripleStore(TestKGs.yago3)
    s2.warm()
    s2.close()
    assert(s2.triples.count() == TestKGs.yago3.triples.count())
  }
}
