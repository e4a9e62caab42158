package repro.rdf

import org.apache.spark.sql.DataFrame

import repro.kg.KG

/** "Virtuoso-lite": an RDF triple store over Spark DataFrames.
  *
  * Real RDF engines keep permutation indices (hexastore) so a bound
  * position of a triple pattern is a lookup, not a scan. This store has no
  * such index: every data pattern scans the KG's triple table (held in
  * memory by [[repro.kg.KG.cached]]), with constant positions applied as
  * filters. Index-backed scans are ROADMAP item 3. [[Endpoint]] sorts a
  * subquery's result itself, once per extraction, to cut its pages.
  *
  * Node types are not stored as triples. A node type is an id range
  * ([[repro.kg.NodeTypeInfo]]), and [[BGPExecutor]] compiles
  * ``?x a <type:T>`` to a range filter on ``?x``.
  */
final class TripleStore(val kg: KG) {
  private val schema = kg.schema

  /** The triple table every data pattern scans. */
  def triples: DataFrame = kg.triples

  /** The engine's one-off load, kept so benches can exclude it from
    * per-query extraction time, as the paper excludes Virtuoso's bulk load.
    * The KG's tables are already resident (``KG.cached()``) and the store
    * builds nothing of its own, so this runs no Spark work.
    */
  def warm(): TripleStore = this

  /** Release what [[warm]] built: nothing, so this runs no Spark work. */
  def close(): Unit = ()

  /** Resolve an IRI to the id it denotes (predicate ids for ``rel:``,
    * entity ids for ``node:``). A ``type:`` IRI names an id range, not an
    * id, so it is unresolvable here: only a type pattern's object takes one.
    */
  def resolve(iri: IRI): Long = iri.name match {
    case n if n.startsWith("rel:")  => schema.edgeType(n.drop(4)).id.toLong
    case n if n.startsWith("node:") => n.drop(5).toLong
    case n => throw new IllegalArgumentException(s"unresolvable IRI <$n>")
  }
}
