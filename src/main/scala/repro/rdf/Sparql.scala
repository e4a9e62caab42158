package repro.rdf

/** AST for the SPARQL subset KG-TOSA's extraction queries use:
  * ``SELECT``, basic graph patterns and ``UNION``. Algorithm 3's
  * ``LIMIT``/``OFFSET`` windows are not query clauses here: they are the
  * page slices of [[Endpoint.pagePlan]].
  *
  * IRI naming convention (resolved against the KG schema by the executor):
  *  - ``type:Name``  — node type ``Name``, an id range rather than a node:
  *    only the object of ``?x a <type:Name>``, a range filter on ``?x``
  *  - ``rel:name``   — the predicate ``name``
  *  - ``node:123``   — the entity with id 123
  *  - ``rdf:type``   — the type predicate (keyword ``a`` in text), only in
  *    ``?x a <type:Name>``
  */
sealed trait Term
final case class Var(name: String) extends Term {
  require(name.nonEmpty && name.forall(ch => ch.isLetterOrDigit || ch == '_'), s"bad var name $name")
}
final case class IRI(name: String) extends Term

/** One triple pattern ``s p o``. */
final case class TriplePattern(s: Term, p: Term, o: Term) {
  /** Variable names used by this pattern. */
  def vars: Seq[String] =
    Seq(s, p, o).collect { case Var(n) => n }.distinct
}

/** A group: either a conjunction of patterns or a union of groups. */
sealed trait GroupPattern {
  def vars: Seq[String]
}
final case class BGP(patterns: Seq[TriplePattern]) extends GroupPattern {
  require(patterns.nonEmpty, "empty BGP")
  def vars: Seq[String] = patterns.flatMap(_.vars).distinct
}
final case class Union(branches: Seq[GroupPattern]) extends GroupPattern {
  require(branches.size >= 2, "UNION needs at least two branches")
  def vars: Seq[String] = branches.flatMap(_.vars).distinct
}

/** A SELECT query. Empty ``selectVars`` means ``SELECT *``. */
final case class Query(selectVars: Seq[String], where: GroupPattern) {
  /** Projected variable names (explicit list, or all pattern vars for *). */
  def projected: Seq[String] = if (selectVars.nonEmpty) selectVars else where.vars
}

/** Canonical text rendering (parse ∘ render = identity, tested). */
object Sparql {
  private def term(t: Term): String = t match {
    case Var(n)          => s"?$n"
    case IRI("rdf:type") => "a"
    case IRI(n)          => s"<$n>"
  }

  private def group(g: GroupPattern): String = g match {
    case BGP(ps)      => ps.map(p => s"${term(p.s)} ${term(p.p)} ${term(p.o)}").mkString(" . ")
    case Union(bs)    => bs.map(b => s"{ ${group(b)} }").mkString(" UNION ")
  }

  /** Render a query to SPARQL text. */
  def render(q: Query): String = {
    val sel = if (q.selectVars.isEmpty) "*" else q.selectVars.map("?" + _).mkString(" ")
    s"SELECT $sel WHERE { ${group(q.where)} }"
  }
}
