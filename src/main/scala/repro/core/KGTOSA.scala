package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.kg.{KG, NodeJoin}
import repro.rdf.{Endpoint, Query, Sparql}
import repro.sampling.{BRW, IBS, URW}
import repro.synth.{LPTask, NCTask, Tasks}
import repro.timed

/** One TOSG extraction: the subgraph, its wall-clock extraction cost, and
  * bookkeeping for the benches.
  */
final case class Extraction(
    subgraph: KG,
    extractSeconds: Double,
    method: String,
    batches: Int = 0,
    sparqlQueries: Seq[String] = Nil,
)

/** KG-TOSA: task-oriented subgraph extraction (Section IV). The default
  * method is SPARQL-based (Algorithm 3); BRW and IBS are the developed
  * sampling baselines; URW is GraphSAINT's type-blind baseline sampler.
  */
object KGTOSA {

  /** Assemble a resident KG' (as ``KG.cached()``) from extracted triples:
    * node set = endpoints of the triples plus all targets (targets with no
    * matched edge must stay — they carry labels), with the full KG's
    * node-type rows. The triples are materialised first, so the node set
    * reads them rather than evaluating their query again.
    */
  private def fromTriples(kg: KG, triples: DataFrame, targets: DataFrame): KG = {
    val t = KG.resident(triples)
    val types = kg.nodeTypes.select(col("id"), col("ntype"))
    KG(kg.schema, t, KG.resident(t.sparkSession.createDataFrame(nodeRows(types, t, targets), types.schema)))
  }

  /** The rows of ``types`` (``id, ntype``) whose id is an end (``s`` or
    * ``o``) of ``triples`` or a target: the distinct ends, one shuffle with
    * a merge on each side, are the [[NodeJoin]] table the type rows stream
    * past. RDD operations, which generate no code (DESIGN.md §5.5).
    */
  private[repro] def nodeRows(types: DataFrame, triples: DataFrame, targets: DataFrame): RDD[Row] = {
    val part = new HashPartitioner(types.sparkSession.sparkContext.defaultParallelism)
    val (s, o) = (triples.schema.fieldIndex("s"), triples.schema.fieldIndex("o"))
    val ends = triples.queryExecution.toRdd.flatMap(r => Iterator(r.getLong(s), r.getLong(o)))
      .union(KG.ids(targets))
    val kept = NodeJoin.reduce(ends.map(id => (id, ())), part)((a, _) => a)
    val byId = types.queryExecution.toRdd.map(r => (r.getLong(0), r.getInt(1))).partitionBy(part)
    NodeJoin.probe(byId, kept)((rows, ends) => rows.collect { case (id, ty) if ends.contains(id) => Row(id, ty) })
  }

  /** Algorithm 3's merge, shared by the NC and LP extractions: paginate
    * all subqueries in one page job, narrow their union with ``restrict``,
    * and deduplicate where a union can repeat a row — the one place that
    * makes KG' a set of triples. The subgraph is materialised
    * (``fromTriples``) inside the timing, so the measured extraction time
    * includes doing the work; the endpoint's page table is freed after it.
    */
  private def sparqlMerge(endpoint: Endpoint, pattern: GraphPattern, queries: Seq[Query], bs: Long,
                          targets: DataFrame, restrict: DataFrame => DataFrame = identity): Extraction = {
    val ((sub, nBatches), secs) = timed {
      val (paged, pages) = endpoint.paginated(queries, bs)
      // each subquery's pages are already a set; only a union repeats rows:
      // of two or more subqueries, or restrict's on("s") ∪ on("o"), which
      // only d = 2 patterns (two or more subqueries) use
      try {
        val merged = restrict(paged)
        val triples = (if (queries.size > 1) merged.dropDuplicates() else merged)
          .select(col("s"), col("p").cast("int") as "p", col("o"))
        (fromTriples(endpoint.store.kg, triples, targets), pages)
      } finally repro.release(paged) // KG' holds its own resident copy
    }
    Extraction(sub, secs, s"KG-TOSA_d${pattern.d}h${pattern.h}", nBatches, queries.map(Sparql.render))
  }

  /** SPARQL-based TOSG extraction (Algorithm 3) for an NC task: one
    * paginated subquery per pattern layer, merged, deduplicated.
    *
    * @param targetSample if set (h = 1 only), restrict the TOSG to this
    *                     subset of targets — Table III's protocol, where all
    *                     methods extract around the same number of roots
    */
  def sparqlExtract(endpoint: Endpoint, task: NCTask, pattern: GraphPattern, bs: Long,
                    targetSample: Option[DataFrame] = None): Extraction = {
    require(targetSample.isEmpty || pattern.h == 1, "target sampling only supported for h = 1 patterns")
    val targets = targetSample.getOrElse(Tasks.targets(endpoint.store.kg, task))
    // h = 1: every extracted triple touches a target at s (d ≥ 1) or o (d = 2)
    def restrict(triples: DataFrame): DataFrame = targetSample.fold(triples) { ts =>
      def on(v: String) = triples.join(ts.select(col("id") as v), Seq(v), "left_semi")
      if (pattern.d == 2) on("s").union(on("o")) else on("s")
    }
    sparqlMerge(endpoint, pattern, pattern.queries(task.targetType), bs, targets, restrict)
  }

  /** SPARQL-based TOSG extraction for an LP task (d2h1 default): per-type
    * subgraphs of the predicate's subject and object types plus the bridge
    * pattern.
    */
  def sparqlExtractLP(endpoint: Endpoint, task: LPTask, pattern: GraphPattern, bs: Long): Extraction = {
    val kg = endpoint.store.kg
    val et = kg.schema.edgeType(task.predicate)
    val ti = kg.schema.nodeTypes(et.srcType)
    val tj = kg.schema.nodeTypes(et.dstType)
    val targets = kg.nodeTypes.filter(ti.contains(col("id")) || tj.contains(col("id"))).select(col("id"))
    sparqlMerge(endpoint, pattern, pattern.lpQueries(ti.name, tj.name, task.predicate), bs, targets)
  }

  /** BRW baseline extraction (Algorithm 1). */
  def brwExtract(kg: KG, task: NCTask, bs: Int, h: Int, seed: Int): Extraction = {
    val (sub, secs) = timed(BRW.sample(kg, Tasks.targets(kg, task), bs, h, seed).cached())
    Extraction(sub, secs, "BRW")
  }

  /** IBS baseline extraction (Algorithm 2); ``IBS.sample`` returns its
    * subgraph already materialised.
    */
  def ibsExtract(kg: KG, task: NCTask, bs: Int, k: Int, alpha: Double, seed: Int): Extraction = {
    val (sub, secs) = timed(IBS.sample(kg, Tasks.targets(kg, task), bs, k, alpha, seed))
    Extraction(sub, secs, "IBS")
  }

  /** URW baseline (GraphSAINT's type-blind sampler) — the paper's Table III
    * "RW" column.
    */
  def urwExtract(kg: KG, bs: Int, h: Int, seed: Int): Extraction = {
    val (sub, secs) = timed(URW.sample(kg, bs, h, seed).cached())
    Extraction(sub, secs, "URW")
  }
}
