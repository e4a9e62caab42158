package repro.rdf

import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.core.{GraphPattern, KGTOSA}
import repro.synth.{NCTask, RandomSplit}

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

  test("type pattern answers from the type's id range (oracle)") {
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

  test("LIMIT or OFFSET beyond Int range fails loudly instead of wrapping") {
    // 2^32 wraps to 0 under toInt: LIMIT would return no rows, OFFSET skip none
    for (clause <- Seq("LIMIT 4294967296", "OFFSET 4294967296"))
      intercept[ArithmeticException](run(s"SELECT ?s ?o WHERE { ?s <rel:livesIn> ?o } $clause").count())
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

  test("variable predicates range over the triple table's predicates") {
    val got = run("SELECT ?p WHERE { ?s ?p ?o }").distinct().collect().map(_.getLong(0)).toSet
    assert(got == kg.triples.select("p").distinct().collect().map(_.getInt(0).toLong).toSet)
  }

  test("type patterns the store cannot answer are rejected") {
    for (text <- Seq(
           "SELECT ?s ?c WHERE { ?s a ?c }",
           "SELECT ?p ?o WHERE { <node:1> a <type:Person> . <node:1> ?p ?o }",
           "SELECT ?s WHERE { ?s a <rel:livesIn> }",
           "SELECT ?s ?p WHERE { ?s ?p <type:Person> }"))
      intercept[IllegalArgumentException](run(text).count())
  }

  test("a typed subquery compiles to a filtered scan, with no join") {
    val plan = run("SELECT ?s ?p ?o WHERE { ?s a <type:Person> . ?s ?p ?o }").queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan.treeString)
  }

  test("two type filters on one data join (oracle)") {
    val got = run("SELECT ?s ?p ?o WHERE { ?s a <type:Person> . ?s ?p ?o . ?o a <type:Country> }")
    val person = kg.schema.nodeType("Person").id
    val country = kg.schema.nodeType("Country").id
    Oracle.assertEquivalent(
      got,
      s"SELECT t.s, t.p, t.o FROM triples t " +
        s"JOIN nodetypes a ON a.id = t.s JOIN nodetypes b ON b.id = t.o " +
        s"WHERE a.ntype = '$person' AND b.ntype = '$country'",
      "triples" -> kg.triples, "nodetypes" -> kg.nodeTypes)
  }

  test("type pattern over an extracted KG' returns exactly its members of the type (oracle)") {
    // d1h1 around a third of the Persons: nothing points to a Person in
    // YAGO3-lite, so KG' holds only the sampled ones — a strict subset of
    // the type's id range
    val task = NCTask("P", kg.schema.name, "Person", kg.schema.communities, RandomSplit, (0.8, 0.1, 0.1))
    val sample = kg.nodesOfType("Person").filter(col("id") % 3 === 0)
    val sub = KGTOSA.sparqlExtract(new Endpoint(store, parallelism = 2), task, GraphPattern(1, 1),
                                   bs = 100000, targetSample = Some(sample)).subgraph
    val got = new BGPExecutor(new TripleStore(sub)).execute(SparqlParser.parse("SELECT ?t WHERE { ?t a <type:Person> }"))
    val t = kg.schema.nodeType("Person")
    assert(got.count() < t.count)
    Oracle.assertEquivalent(got, s"SELECT id AS t FROM nodetypes WHERE ntype = '${t.id}'", "nodetypes" -> sub.nodeTypes)
    sub.uncache()
  }
}
