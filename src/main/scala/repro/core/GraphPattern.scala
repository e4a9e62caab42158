package repro.core

import repro.rdf.{BGP, IRI, Query, TriplePattern, Var}

/** KG-TOSA's generic graph pattern (Figure 3), parameterised by predicate
  * direction ``d`` (1 = outgoing only, 2 = outgoing and incoming) and hop
  * count ``h``. [[queries]] renders it as one SPARQL subquery per
  * (direction-combination, hop layer); Algorithm 3 paginates each subquery
  * independently.
  *
  * Every subquery projects variables named ``s p o`` — the triple to add to
  * KG'. Merging the subquery results interconnects per-target neighbourhoods
  * into longer metapaths (Section IV-C).
  */
final case class GraphPattern(d: Int, h: Int) {
  require(d == 1 || d == 2, s"direction must be 1 or 2, got $d")
  require(h == 1 || h == 2, s"hops must be 1 or 2, got $h")

  private def v(n: String) = Var(n)
  private def typeOf(t: String) = IRI(s"type:$t")
  private val spo = Seq("s", "p", "o")

  /** Subqueries for an NC task targeting node type ``targetType``. */
  def queries(targetType: String): Seq[Query] = {
    val tt = typeOf(targetType)
    val out1 = Query(spo, BGP(Seq(
      TriplePattern(v("s"), IRI("rdf:type"), tt),
      TriplePattern(v("s"), v("p"), v("o")))))
    val in1 = Query(spo, BGP(Seq(
      TriplePattern(v("s"), v("p"), v("o")),
      TriplePattern(v("o"), IRI("rdf:type"), tt))))
    // hop-2 layers: second edge of a 2-step path from a target; the first
    // edge is already covered by the hop-1 layer of the same direction.
    val oo = Query(spo, BGP(Seq(
      TriplePattern(v("t"), IRI("rdf:type"), tt),
      TriplePattern(v("t"), v("q"), v("s")),
      TriplePattern(v("s"), v("p"), v("o")))))
    val oi = Query(spo, BGP(Seq(
      TriplePattern(v("t"), IRI("rdf:type"), tt),
      TriplePattern(v("t"), v("q"), v("o")),
      TriplePattern(v("s"), v("p"), v("o")))))
    val io = Query(spo, BGP(Seq(
      TriplePattern(v("s"), v("q"), v("t")),
      TriplePattern(v("t"), IRI("rdf:type"), tt),
      TriplePattern(v("s"), v("p"), v("o")))))
    val ii = Query(spo, BGP(Seq(
      TriplePattern(v("o"), v("q"), v("t")),
      TriplePattern(v("t"), IRI("rdf:type"), tt),
      TriplePattern(v("s"), v("p"), v("o")))))
    (d, h) match {
      case (1, 1) => Seq(out1)
      case (2, 1) => Seq(out1, in1)
      case (1, 2) => Seq(out1, oo)
      case (2, 2) => Seq(out1, in1, oo, oi, io, ii)
    }
  }

  /** Subqueries for an LP task between target types ``ti`` and ``tj`` over
    * predicate ``pT``: per-type subgraphs plus the bridge triple pattern
    * ``⟨?v_Ti, p_T, ?v_Tj⟩`` interlinking them (and all co-located edges
    * between bridge endpoints).
    */
  def lpQueries(ti: String, tj: String, pT: String): Seq[Query] = {
    val bridge = Query(spo, BGP(Seq(
      TriplePattern(v("s"), IRI(s"rel:$pT"), v("o")),
      TriplePattern(v("s"), v("p"), v("o")))))
    val perType =
      if (ti == tj) queries(ti)
      else queries(ti) ++ queries(tj)
    perType :+ bridge
  }
}
