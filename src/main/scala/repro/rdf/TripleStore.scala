package repro.rdf

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.kg.KG

/** "Virtuoso-lite": an RDF triple store over Spark DataFrames.
  *
  * Real RDF engines keep permutation indices (hexastore) so a bound
  * position of a triple pattern is a lookup, not a scan. This store has no
  * such index: every non-type pattern scans the KG's triple table (held in
  * memory by [[repro.kg.KG.cached]]), with constant positions applied as
  * filters. Index-backed scans are ROADMAP item 2.
  *
  * ``rdf:type`` triples are virtual: synthesised from the node-type table
  * with class-node objects, mirroring engines that store type quads.
  */
final class TripleStore(val kg: KG) {
  private val schema = kg.schema

  /** The triple table every non-type pattern scans. */
  def triples: DataFrame = kg.triples

  /** Virtual ``rdf:type`` triples: ``(node, typeP, classNode(ntype))``. */
  lazy val typeTriples: DataFrame =
    kg.nodeTypes
      .select(
        col("id") as "s",
        lit(schema.typeP) as "p",
        (lit(schema.totalNodes) + col("ntype").cast("long")) as "o",
      )
      .persist(StorageLevel.MEMORY_AND_DISK)

  /** Materialise the type triples (the engine's one-off load). Kept
    * separate so benches can exclude it from per-query extraction time,
    * exactly as the paper excludes Virtuoso's bulk load.
    */
  def warm(): TripleStore = {
    typeTriples.count()
    this
  }

  /** Drop the cached type triples. */
  def close(): Unit = typeTriples.unpersist()

  /** Resolve an IRI to the id it denotes (predicate ids for ``rel:``,
    * class-node ids for ``type:``, entity ids for ``node:``).
    */
  def resolve(iri: IRI): Long = iri.name match {
    case n if n.startsWith("rel:")  => schema.edgeType(n.drop(4)).id.toLong
    case "rdf:type"                 => schema.typeP.toLong
    case n if n.startsWith("type:") => schema.classNode(schema.nodeType(n.drop(5)).id)
    case n if n.startsWith("node:") => n.drop(5).toLong
    case n => throw new IllegalArgumentException(s"unresolvable IRI <$n>")
  }
}
