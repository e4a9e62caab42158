package repro.rdf

/** Recursive-descent parser for the SPARQL subset of [[Sparql.render]].
  *
  * Grammar:
  * {{{
  * query    := SELECT ( '*' | var+ ) WHERE '{' body '}'
  * body     := unionSeq | patterns
  * unionSeq := '{' body '}' (UNION '{' body '}')+   — or a single braced body
  * patterns := pattern ('.' pattern)* '.'?
  * pattern  := term term term
  * term     := var | iri | 'a'
  * var      := '?' NAME ;  iri := '<' NAME '>'
  * }}}
  */
object SparqlParser {

  /** Parse SPARQL text into a [[Query]]; throws IllegalArgumentException on
    * syntax errors with the offending position.
    */
  def parse(text: String): Query = new P(tokenize(text)).query()

  // -- lexer ------------------------------------------------------------------
  private val tokenRe =
    """\s*(SELECT|WHERE|UNION|\{|\}|\.|\*|\?[A-Za-z0-9_]+|<[^>\s]+>|a\b)""".r

  private def tokenize(text: String): Vector[String] = {
    var pos = 0
    val out = Vector.newBuilder[String]
    while (pos < text.length && text.substring(pos).trim.nonEmpty) {
      tokenRe.findPrefixMatchOf(text.substring(pos)) match {
        case Some(m) => out += m.group(1); pos += m.end
        case None =>
          throw new IllegalArgumentException(s"SPARQL lex error at offset $pos: '${text.substring(pos).take(20)}'")
      }
    }
    out.result()
  }

  // -- parser -----------------------------------------------------------------
  private final class P(toks: Vector[String]) {
    private var i = 0
    private def peek: Option[String] = toks.lift(i)
    private def next(): String = {
      val t = peek.getOrElse(throw new IllegalArgumentException("unexpected end of query"))
      i += 1; t
    }
    private def expect(t: String): Unit = {
      val got = next()
      require(got == t, s"expected '$t' but got '$got' at token $i")
    }

    def query(): Query = {
      expect("SELECT")
      val vars =
        if (peek.contains("*")) { next(); Seq.empty[String] }
        else {
          val vs = Seq.newBuilder[String]
          while (peek.exists(_.startsWith("?"))) vs += next().drop(1)
          val r = vs.result()
          require(r.nonEmpty, "SELECT needs '*' or at least one variable")
          r
        }
      expect("WHERE"); expect("{")
      val where = body()
      expect("}")
      require(peek.isEmpty, s"trailing tokens starting at '${peek.get}'")
      Query(vars, where)
    }

    private def body(): GroupPattern =
      if (peek.contains("{")) {
        val branches = Seq.newBuilder[GroupPattern]
        expect("{"); branches += body(); expect("}")
        while (peek.contains("UNION")) {
          next(); expect("{"); branches += body(); expect("}")
        }
        val bs = branches.result()
        if (bs.size == 1) bs.head else Union(bs)
      } else patterns()

    private def patterns(): BGP = {
      val ps = Seq.newBuilder[TriplePattern]
      ps += pattern()
      while (peek.contains(".")) {
        next()
        if (peek.exists(t => t != "}" )) ps += pattern()
      }
      BGP(ps.result())
    }

    private def pattern(): TriplePattern = TriplePattern(term(), term(), term())

    private def term(): Term = next() match {
      case "a"                     => IRI("rdf:type")
      case t if t.startsWith("?")  => Var(t.drop(1))
      case t if t.startsWith("<")  => IRI(t.drop(1).dropRight(1))
      case t                       => throw new IllegalArgumentException(s"expected term, got '$t'")
    }
  }
}
