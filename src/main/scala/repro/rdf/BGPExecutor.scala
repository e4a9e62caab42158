package repro.rdf

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Compiles a SPARQL-subset [[Query]] to Catalyst joins over a
  * [[TripleStore]].
  *
  * Data patterns scan the triple table, with bound positions as filters,
  * and join on shared variables. A node type is an id range, so each
  * ``?x a <type:T>`` is the filter [[repro.kg.NodeTypeInfo.contains]] on
  * column ``x`` of that join (of the node-type table if no data pattern
  * binds ``x``). Any other ``rdf:type`` shape is rejected.
  */
final class BGPExecutor(store: TripleStore) {

  /** Execute a query; result columns are the projected variable names, all
    * LongType. Bag semantics (no implicit DISTINCT), as in SPARQL SELECT.
    */
  def execute(q: Query): DataFrame = {
    val bound = group(q.where)
    val projected = q.projected.map(col)
    var df = bound.select(projected: _*)
    if (q.limit.isDefined || q.offset.isDefined) {
      // LIMIT/OFFSET need a total order to be meaningful; order by all
      // projected columns (deterministic given set semantics upstream).
      df = df.orderBy(q.projected.map(col): _*)
      // Dataset.offset/limit take an Int: an overflow fails loudly
      q.offset.foreach(n => df = df.offset(Math.toIntExact(n)))
      q.limit.foreach(n => df = df.limit(Math.toIntExact(n)))
    }
    df
  }

  private def group(g: GroupPattern): DataFrame = g match {
    case BGP(patterns) =>
      val (types, data) = patterns.partition(_.p == IRI("rdf:type"))
      val ranges = types.map {
        case TriplePattern(Var(x), _, IRI(t)) if t.startsWith("type:") => x -> store.kg.schema.nodeType(t.drop(5))
        case tp => throw new IllegalArgumentException(s"type pattern $tp is not of the form ?x a <type:T>")
      }
      val unbound = ranges.map(_._1).distinct.filterNot(x => data.exists(_.vars.contains(x)))
      val nodes = unbound.map(x => store.kg.nodeTypes.select(col("id") as x))
      val joined = (data.map(scan) ++ nodes).reduce { (acc, nxt) =>
        val common = acc.columns.intersect(nxt.columns).toSeq
        if (common.nonEmpty) acc.join(nxt, common) else acc.crossJoin(nxt)
      }
      ranges.foldLeft(joined) { case (df, (x, t)) => df.filter(t.contains(col(x))) }
    case Union(branches) =>
      val dfs = branches.map(group)
      val allVars = g.vars
      // SPARQL UNION aligns by variable name; missing vars would be unbound
      // (null) — our extraction queries always use identical var sets.
      dfs.map(df => df.select(allVars.map(v => colOrNull(df, v)): _*)).reduce(_ union _)
  }

  private def colOrNull(df: DataFrame, v: String): Column =
    if (df.columns.contains(v)) col(v) else lit(null).cast("long").as(v)

  /** One data pattern: scan the triple table, push constant filters,
    * rename the variable positions; result has one LongType column per
    * variable.
    */
  private def scan(tp: TriplePattern): DataFrame = {
    var df = tp.p match {
      case iri: IRI => store.triples.filter(col("p") === store.resolve(iri).toInt)
      case _: Var   => store.triples
    }
    // constant filters for subject/object
    tp.s match { case iri: IRI => df = df.filter(col("s") === store.resolve(iri)); case _ => () }
    tp.o match { case iri: IRI => df = df.filter(col("o") === store.resolve(iri)); case _ => () }
    // repeated variable inside one pattern → equality filter
    (tp.s, tp.o) match {
      case (Var(a), Var(b)) if a == b => df = df.filter(col("s") === col("o"))
      case _                          => ()
    }
    val named = Seq(
      tp.s match { case Var(n) => Some(n -> col("s")); case _ => None },
      tp.p match { case Var(n) => Some(n -> col("p")); case _ => None },
      tp.o match { case Var(n) => Some(n -> col("o")); case _ => None },
    ).flatten
    require(named.nonEmpty, s"pattern $tp binds no variables")
    // a var repeated inside one pattern projects once (first occurrence)
    val distinctCols = named
      .groupBy(_._1).view.mapValues(_.head._2).toSeq
      .map { case (n, c) => c.cast("long").as(n) }
    df.select(distinctCols: _*)
  }
}
