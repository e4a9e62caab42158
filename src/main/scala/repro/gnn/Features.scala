package repro.gnn

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

import repro.kg.{KG, KGSchema}

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

  /** The features of a node from its id and type: ``f_j`` is the node's
    * community indicator at ``j`` (signal types only) plus uniform noise in
    * ±sigma/2, drawn by [[KG.bucket]] with salt ``seed·131 + j``. The one
    * definition behind [[nodeFeatures]] and [[vectors]]. Deterministic in
    * (schema, seed).
    *
    * @param sigma noise amplitude
    */
  def row(schema: KGSchema, seed: Int = 5, sigma: Double = 0.6): (Long, Int) => Array[Double] = {
    val f = schema.communities
    val signalIds = signalTypesFor(schema.name).map(schema.nodeType(_).id).toSet
    // per-type offset and signal flag, looked up by ntype (= index in the schema)
    val offset = schema.nodeTypes.map(_.offset).toArray
    val signal = schema.nodeTypes.map(t => if (signalIds.contains(t.id)) 1.0 else 0.0).toArray
    (id, ntype) => {
      val comm = Math.floorMod(id - offset(ntype), f.toLong)
      Array.tabulate(f) { j =>
        val indicator = (if (comm == j) 1.0 else 0.0) * signal(ntype)
        indicator + (KG.uniform(KG.bucket(seed * 131 + j, id)) - 0.5) * sigma
      }
    }
  }

  /** Features for every node of ``g``: DF ``(id, f0..f{F-1})`` of [[row]]. */
  def nodeFeatures(g: KG, seed: Int = 5, sigma: Double = 0.6): DataFrame = {
    val feature = row(g.schema, seed, sigma)
    val schema = StructType(StructField("id", LongType, nullable = false) +:
      (0 until dim(g)).map(j => StructField(s"f$j", DoubleType)))
    g.nodeTypes.sparkSession.createDataFrame(
      g.nodeRows.map { case (id, t) => Row.fromSeq(id +: feature(id, t).toSeq) }, schema)
  }

  /** [[row]] of every node of ``g`` as vectors under ``part``. */
  def vectors(g: KG, part: Partitioner): Aggregation.Vectors = {
    val feature = row(g.schema)
    g.nodeRows.map { case (id, t) => (id, feature(id, t)) }.partitionBy(part)
  }
}
