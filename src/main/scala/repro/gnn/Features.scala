package repro.gnn

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.kg.KG

/** Planted node features.
  *
  * Feature width F equals the KG's community count. Nodes of *signal* types
  * carry a noisy one-hot of their latent community; every other node
  * (including task targets) carries pure noise. Labels therefore cannot be
  * read off a target's own features — they must be aggregated from
  * neighbourhoods, which is exactly the axis KG-TOSA improves (data
  * sufficiency and topology around targets). See DESIGN.md §5.5.
  */
object Features {

  /** Node types whose features encode their community, per KG. Chosen as
    * core types that are never NC-task targets.
    */
  def signalTypesFor(kgName: String): Seq[String] = kgName match {
    case "MAG-42M"      => Seq("Author", "FieldOfStudy", "Venue", "Affiliation")
    case "YAGO-30M"     => Seq("Person", "Organization", "Country", "Genre")
    case "DBLP-15M"     => Seq("Venue", "Country", "Affiliation")
    case "ogbl-wikikg2" => Seq("Occupation", "Place")
    case "YAGO3-10"     => Seq("Country", "City", "Film")
    case other          => throw new NoSuchElementException(s"no signal types for KG $other")
  }

  /** Feature width for a graph. */
  def dim(g: KG): Int = g.schema.communities

  /** Features for every node of ``g``: DF ``(id, f0..f{F-1})``.
    * Deterministic in (schema, seed).
    *
    * @param sigma noise amplitude (uniform in ±sigma/2)
    */
  def nodeFeatures(g: KG, seed: Int = 5, sigma: Double = 0.6): DataFrame = {
    val schema = g.schema
    val f = dim(g)
    val signalIds = signalTypesFor(schema.name).map(schema.nodeType(_).id).toSet

    // per-type offset and signal flag, looked up by ntype (= index in the schema)
    val offset = typedLit(schema.nodeTypes.map(_.offset)).getItem(col("ntype"))
    val signal = typedLit(schema.nodeTypes.map(t => if (signalIds.contains(t.id)) 1.0 else 0.0)).getItem(col("ntype"))

    val comm = pmod(col("id") - offset, lit(schema.communities.toLong))
    val cols: Seq[Column] = (0 until f).map { j =>
      val indicator = when(comm === j, 1.0).otherwise(0.0) * signal
      val noise = (KG.hashRand(seed * 131 + j, col("id")) - 0.5) * sigma
      (indicator + noise) as s"f$j"
    }
    g.nodeTypes.select(col("id") +: cols: _*)
  }
}
