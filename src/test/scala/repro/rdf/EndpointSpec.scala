package repro.rdf

import repro.{SparkSpec, TestKGs}

class EndpointSpec extends SparkSpec {

  private lazy val kg = TestKGs.yago3
  private lazy val store = new TripleStore(kg).warm()
  private lazy val endpoint = new Endpoint(store, parallelism = 4)

  private val q = SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s a <type:Person> . ?s ?p ?o }")

  test("count matches distinct select cardinality") {
    assert(endpoint.count(q) == endpoint.select(q).distinct().count())
  }

  test("pagination is lossless and duplicate-free") {
    val direct = endpoint.select(q).distinct()
    val (paged, nb) = endpoint.paginated(q, bs = 97)
    assert(nb == math.ceil(direct.count() / 97.0).toInt)
    assert(paged.count() == direct.count())
    assert(paged.exceptAll(direct).count() == 0)
    assert(direct.exceptAll(paged).count() == 0)
  }

  test("pages in order are the ORDER BY result: page i is its i-th LIMIT/OFFSET window") {
    val ordered = endpoint.select(q).distinct().orderBy("s", "p", "o").collect().toSeq
    for (par <- Seq(1, 4); bs <- Seq(61L, 97L, 10000000L)) {
      val (paged, _) = new Endpoint(store, parallelism = par).paginated(q, bs)
      assert(paged.collect().toSeq == ordered, s"bs = $bs, parallelism $par")
    }
  }

  test("batch size larger than the result gives one batch") {
    val (paged, nb) = endpoint.paginated(q, bs = 10000000L)
    assert(nb == 1)
    assert(paged.count() == endpoint.count(q))
  }

  test("a page size beyond Int range returns every row in one batch") {
    val direct = endpoint.select(q).distinct()
    for (bs <- Seq(1L << 32, (1L << 31) + 5)) {
      val (paged, nb) = endpoint.paginated(q, bs)
      assert(nb == 1, s"bs = $bs")
      assert(paged.count() == direct.count(), s"bs = $bs")
      assert(paged.exceptAll(direct).count() == 0, s"bs = $bs")
    }
  }

  test("several subqueries on one pool return each subquery's distinct rows and the sum of their batches") {
    val qs = Seq(q,
      SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?o a <type:Person> }"),
      SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s a <type:Film> . ?s ?p ?o }"))
    for (par <- Seq(1, 4)) {
      val e = new Endpoint(store, parallelism = par)
      val singles = qs.map(e.paginated(_, bs = 97))
      val expected = singles.map(_._1).reduce(_ union _)
      val (paged, nb) = e.paginated(qs, bs = 97)
      assert(nb == singles.map(_._2).sum, s"parallelism $par")
      assert(paged.count() == expected.count(), s"parallelism $par")
      assert(paged.exceptAll(expected).count() == 0, s"parallelism $par")
      assert(expected.exceptAll(paged).count() == 0, s"parallelism $par")
    }
  }

  test("subqueries projecting different variables are rejected") {
    val qo = SparqlParser.parse("SELECT ?s WHERE { ?s a <type:Person> }")
    intercept[IllegalArgumentException](endpoint.paginated(Seq(q, qo), bs = 97))
  }

  test("pagination result is independent of batch size") {
    val (a, _) = endpoint.paginated(q, bs = 61)
    val (b, _) = endpoint.paginated(q, bs = 500)
    assert(a.exceptAll(b).count() == 0)
    assert(b.exceptAll(a).count() == 0)
  }

  test("pagination result is independent of worker parallelism") {
    val e1 = new Endpoint(store, parallelism = 1)
    val (a, _) = e1.paginated(q, bs = 200)
    val (b, _) = endpoint.paginated(q, bs = 200)
    assert(a.exceptAll(b).count() == 0)
    assert(b.exceptAll(a).count() == 0)
  }

  test("empty results paginate to an empty frame with the right columns") {
    // Film nodes have no outgoing edges in YAGO3-lite core (actedIn points *to* Film)
    val qe = SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s a <type:Film> . ?s ?p ?o }")
    val (paged, nb) = endpoint.paginated(qe, bs = 10)
    assert(paged.columns.toSeq == Seq("s", "p", "o"))
    assert(nb == 1)
    assert(paged.count() == 0)
  }

  test("union queries paginate losslessly too") {
    val qu = SparqlParser.parse(
      "SELECT ?s ?p ?o WHERE { { ?s a <type:Person> . ?s ?p ?o } UNION { ?s ?p ?o . ?o a <type:Person> } }")
    val (paged, _) = endpoint.paginated(qu, bs = 131)
    assert(paged.count() == endpoint.count(qu))
  }
}
