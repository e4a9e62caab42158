package repro.rdf

import org.scalacheck.{Gen, Prop, Properties}

/** Property tests: parse ∘ render is identity over randomly generated
  * queries in the supported SPARQL subset.
  */
object SparqlProps extends Properties("Sparql") {

  private val genVarName: Gen[String] =
    for {
      h <- Gen.alphaChar
      t <- Gen.listOfN(4, Gen.alphaNumChar)
    } yield (h :: t).mkString

  private val genTerm: Gen[Term] = Gen.oneOf(
    genVarName.map(Var(_)),
    genVarName.map(n => IRI(s"rel:$n")),
    genVarName.map(n => IRI(s"type:$n")),
    Gen.const(IRI("rdf:type")),
    Gen.chooseNum(0L, 9999L).map(n => IRI(s"node:$n")),
  )

  private val genPattern: Gen[TriplePattern] =
    for { s <- genTerm; p <- genTerm; o <- genTerm } yield TriplePattern(s, p, o)

  private val genBGP: Gen[BGP] =
    Gen.chooseNum(1, 4).flatMap(n => Gen.listOfN(n, genPattern)).map(ps => BGP(ps))

  private val genGroup: Gen[GroupPattern] = Gen.frequency(
    3 -> genBGP,
    1 -> Gen.chooseNum(2, 3).flatMap(n => Gen.listOfN(n, genBGP)).map(bs => Union(bs)),
  )

  private val genQuery: Gen[Query] =
    for {
      nSel <- Gen.chooseNum(0, 3)
      sel <- Gen.listOfN(nSel, genVarName)
      g <- genGroup
    } yield Query(sel.distinct, g)

  property("parse(render(q)) == q") = Prop.forAll(genQuery) { q =>
    SparqlParser.parse(Sparql.render(q)) == q
  }

  property("render is stable under double round-trip") = Prop.forAll(genQuery) { q =>
    val once = Sparql.render(q)
    Sparql.render(SparqlParser.parse(once)) == once
  }
}
