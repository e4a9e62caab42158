package repro.rdf

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}

class BGPExecutorSpec extends SparkSpec {

  private lazy val kg = TestKGs.yago3
  private lazy val store = new TripleStore(kg)
  private lazy val exec = new BGPExecutor(store)

  private def run(text: String) = exec.execute(SparqlParser.parse(text))

  test("bound-predicate pattern matches exactly that predicate's triples (oracle)") {
    val got = run("SELECT ?s ?o WHERE { ?s <rel:isCitizenOf> ?o }")
    val pid = kg.schema.edgeType("isCitizenOf").id
    Oracle.assertEquivalent(
      got.select(col("s"), col("o")),
      s"SELECT s, o FROM triples WHERE p = '$pid'",
      "triples" -> kg.triples)
  }

  test("type pattern answers from the virtual rdf:type view (oracle)") {
    val got = run("SELECT ?t WHERE { ?t a <type:Person> }")
    val tid = kg.schema.nodeType("Person").id
    Oracle.assertEquivalent(
      got.select(col("t")),
      s"SELECT id AS t FROM nodetypes WHERE ntype = '$tid'",
      "nodetypes" -> kg.nodeTypes)
  }

  test("two-pattern join: outgoing triples of typed targets (oracle)") {
    val got = run("SELECT ?s ?p ?o WHERE { ?s a <type:Person> . ?s ?p ?o }").distinct()
    val t = kg.schema.nodeType("Person")
    Oracle.assertEquivalent(
      got,
      s"SELECT DISTINCT s, p, o FROM triples " +
        s"WHERE CAST(s AS BIGINT) >= ${t.offset} AND CAST(s AS BIGINT) < ${t.offset + t.count}",
      "triples" -> kg.triples)
  }

  test("UNION of out and in edges of a type (oracle)") {
    val got = run(
      "SELECT ?s ?p ?o WHERE { { ?s a <type:Country> . ?s ?p ?o } UNION { ?s ?p ?o . ?o a <type:Country> } }"
    ).distinct()
    val t = kg.schema.nodeType("Country")
    val lo = t.offset
    val hi = t.offset + t.count
    Oracle.assertEquivalent(
      got,
      s"SELECT DISTINCT s, p, o FROM triples " +
        s"WHERE (CAST(s AS BIGINT) >= $lo AND CAST(s AS BIGINT) < $hi) " +
        s"   OR (CAST(o AS BIGINT) >= $lo AND CAST(o AS BIGINT) < $hi)",
      "triples" -> kg.triples)
  }

  test("bound subject restricts to that node's edges") {
    val anyS = kg.triples.select("s").head().getLong(0)
    val got = run(s"SELECT ?p ?o WHERE { <node:$anyS> ?p ?o }")
    assert(got.count() == kg.triples.filter(col("s") === anyS).count())
  }

  test("bound object restricts to that node's incoming edges") {
    val anyO = kg.triples.select("o").head().getLong(0)
    val got = run(s"SELECT ?s ?p WHERE { ?s ?p <node:$anyO> }")
    assert(got.count() == kg.triples.filter(col("o") === anyO).count())
  }

  test("repeated variable in one pattern means self-loop") {
    val got = run("SELECT ?s ?p WHERE { ?s ?p ?s }")
    assert(got.count() == kg.triples.filter(col("s") === col("o")).count())
  }

  test("LIMIT/OFFSET paginate a totally ordered result without loss") {
    val base = run("SELECT ?s ?o WHERE { ?s <rel:livesIn> ?o }").distinct()
    val total = base.count()
    val page1 = run("SELECT ?s ?o WHERE { ?s <rel:livesIn> ?o } LIMIT 100")
    assert(page1.count() == math.min(100, total))
  }

  test("two-hop chain joins share variables") {
    val got = run("SELECT ?a ?c WHERE { ?a <rel:livesIn> ?b . ?b <rel:cityInCountry> ?c }")
    val li = kg.schema.edgeType("livesIn").id
    val cc = kg.schema.edgeType("cityInCountry").id
    val expected = kg.triples.filter(col("p") === li).select(col("s") as "a", col("o") as "b")
      .join(kg.triples.filter(col("p") === cc).select(col("s") as "b", col("o") as "c"), "b")
      .select("a", "c")
    assert(got.exceptAll(expected).count() == 0)
    assert(expected.exceptAll(got).count() == 0)
  }

  test("unknown IRIs are rejected at execution") {
    intercept[NoSuchElementException](run("SELECT ?s ?o WHERE { ?s <rel:nope> ?o }").count())
    intercept[IllegalArgumentException](run("SELECT ?s ?o WHERE { ?s <weird:x> ?o }").count())
  }

  test("variable predicates do not leak virtual type triples") {
    val got = run("SELECT ?p WHERE { ?s ?p ?o }").distinct().collect().map(_.getLong(0))
    assert(!got.contains(kg.schema.typeP.toLong))
  }
}
