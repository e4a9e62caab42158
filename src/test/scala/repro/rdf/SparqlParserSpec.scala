package repro.rdf

import org.scalatest.funsuite.AnyFunSuite

class SparqlParserSpec extends AnyFunSuite {

  test("parses a single pattern with SELECT *") {
    val q = SparqlParser.parse("SELECT * WHERE { ?s ?p ?o }")
    assert(q.selectVars.isEmpty)
    assert(q.where == BGP(Seq(TriplePattern(Var("s"), Var("p"), Var("o")))))
    assert(q.projected == Seq("s", "p", "o"))
  }

  test("parses explicit select variables") {
    val q = SparqlParser.parse("SELECT ?s ?o WHERE { ?s ?p ?o }")
    assert(q.selectVars == Seq("s", "o"))
  }

  test("parses the a keyword as rdf:type") {
    val q = SparqlParser.parse("SELECT * WHERE { ?t a <type:Paper> }")
    assert(q.where == BGP(Seq(TriplePattern(Var("t"), IRI("rdf:type"), IRI("type:Paper")))))
  }

  test("parses multi-pattern BGPs joined by dots") {
    val q = SparqlParser.parse("SELECT * WHERE { ?t a <type:Paper> . ?t ?p ?o }")
    assert(q.where.asInstanceOf[BGP].patterns.size == 2)
  }

  test("tolerates a trailing dot") {
    val q = SparqlParser.parse("SELECT * WHERE { ?s ?p ?o . }")
    assert(q.where.asInstanceOf[BGP].patterns.size == 1)
  }

  test("parses UNION of two groups") {
    val q = SparqlParser.parse(
      "SELECT * WHERE { { ?s ?p ?t . ?t a <type:P> } UNION { ?t a <type:P> . ?t ?p ?o } }")
    val u = q.where.asInstanceOf[Union]
    assert(u.branches.size == 2)
    assert(u.branches.forall(_.isInstanceOf[BGP]))
  }

  test("parses three-way UNION") {
    val q = SparqlParser.parse(
      "SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } UNION { ?s ?p ?o } }")
    assert(q.where.asInstanceOf[Union].branches.size == 3)
  }

  test("a single braced group is not a Union") {
    val q = SparqlParser.parse("SELECT * WHERE { { ?s ?p ?o } }")
    assert(q.where.isInstanceOf[BGP])
  }

  test("rejects LIMIT and OFFSET") {
    // Algorithm 3's windows are Endpoint.pagePlan's slices, not query clauses
    for (tail <- Seq("LIMIT 10", "OFFSET 20", "LIMIT 10 OFFSET 20", "OFFSET 20 LIMIT 10"))
      intercept[IllegalArgumentException](SparqlParser.parse(s"SELECT * WHERE { ?s ?p ?o } $tail"))
  }

  test("parses rel: and node: IRIs") {
    val q = SparqlParser.parse("SELECT * WHERE { ?s <rel:cites> <node:42> }")
    val p = q.where.asInstanceOf[BGP].patterns.head
    assert(p.p == IRI("rel:cites") && p.o == IRI("node:42"))
  }

  test("rejects lexical garbage") {
    intercept[IllegalArgumentException](SparqlParser.parse("SELECT * WHERE { ?s %% ?o }"))
  }

  test("rejects a truncated query") {
    intercept[IllegalArgumentException](SparqlParser.parse("SELECT * WHERE { ?s ?p"))
  }

  test("rejects trailing tokens") {
    intercept[IllegalArgumentException](SparqlParser.parse("SELECT * WHERE { ?s ?p ?o } garbage}"))
  }

  test("rejects SELECT without variables or star") {
    intercept[IllegalArgumentException](SparqlParser.parse("SELECT WHERE { ?s ?p ?o }"))
  }

  test("render ∘ parse is identity on a nested query") {
    val text = "SELECT ?s ?p ?o WHERE { { ?t a <type:X> . ?t ?q ?s . ?s ?p ?o } UNION { ?s ?p ?o . ?o a <type:X> } }"
    val q = SparqlParser.parse(text)
    assert(SparqlParser.parse(Sparql.render(q)) == q)
  }

  test("render of the paper's Q^{d2h1} shape round-trips") {
    val q = Query(Seq("s", "p", "o"), Union(Seq(
      BGP(Seq(TriplePattern(Var("s"), Var("p"), Var("t")),
              TriplePattern(Var("t"), IRI("rdf:type"), IRI("type:Paper")))),
      BGP(Seq(TriplePattern(Var("t"), IRI("rdf:type"), IRI("type:Paper")),
              TriplePattern(Var("t"), Var("p"), Var("o")))))))
    assert(SparqlParser.parse(Sparql.render(q)) == q)
  }

  test("Var rejects bad names, Union rejects single branch, BGP rejects empty") {
    intercept[IllegalArgumentException](Var("bad name"))
    intercept[IllegalArgumentException](Union(Seq(BGP(Seq(TriplePattern(Var("s"), Var("p"), Var("o")))))))
    intercept[IllegalArgumentException](BGP(Nil))
  }
}
