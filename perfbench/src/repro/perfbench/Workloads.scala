package repro.perfbench

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.Oracle
import repro.core.{GraphPattern, KGTOSA, Transform}
import repro.gnn.{Aggregation, Features, LinkPred, TrainParams, TrainResult, Trainers}
import repro.kg.KG
import repro.metrics.SubgraphQuality
import repro.rdf.{BGPExecutor, Endpoint, Query, TripleStore}
import repro.sampling.{Induce, PPR, RandomWalk, URW}
import repro.synth.{KGBench, Tasks}

/** What one pipeline iteration produced: quality figures that must repeat
  * exactly across iterations of one seed, and row counts plus checksums of
  * its outputs that must repeat too.
  */
final case class Outcome(quality: Map[String, Double], outputs: Map[String, Forced],
                         layerSeconds: Map[String, Double] = Map.empty) {
  def sameAs(o: Outcome): Boolean =
    quality == o.quality && outputs.map { case (k, f) => k -> (f.rows, f.checksum) } ==
      o.outputs.map { case (k, f) => k -> (f.rows, f.checksum) }
}

/** Shared parameters of every workload: the Spark session, the tracer, the
  * KG scale and the `local[N]` core count.
  */
final case class Ctx(spark: SparkSession, t: Tracer, scale: Double, cores: Int)

/** One named benchmark workload over one synthetic KG.
  *
  * [[setup]] builds the KG and the triple store; [[iteration]] runs the
  * timed pipeline once inside the span ``iter``; [[check]] verifies its
  * KG' against an independent evaluation; [[probes]] call single layers
  * directly (traced runs only).
  */
abstract class Workload(val name: String, val kgName: String) {
  protected var c: Ctx = _
  protected var kg: KG = _
  protected var store: TripleStore = _
  /** The last iteration's KG', kept cached for [[check]]. */
  protected var kgp: KG = _
  protected def t: Tracer = c.t

  /** Counts gathered by [[probes]], by per-layer metric name. */
  val probeCounts: scala.collection.mutable.Map[String, Double] = scala.collection.mutable.Map.empty

  private def add(k: String, v: Double): Unit = probeCounts(k) = probeCounts.getOrElse(k, 0.0) + v

  /** Generate the KG for ``seed`` and build its store; drops the previous one. */
  def setup(ctx: Ctx, seed: Int): Unit = {
    close()
    c = ctx
    val spec = KGBench.spec(kgName).copy(seed = seed)
    kg = t("synth.generate")(KGBench.generate(c.spark, spec, c.scale).cached())
    store = t("rdf.warm")(new TripleStore(kg).warm())
  }

  def close(): Unit = {
    if (kgp != null) { kgp.uncache(); kgp = null }
    if (store != null) { store.close(); kg.uncache(); store = null }
  }

  /** The KG-TOSA path once, untimed: compiles and caches what iterations run. */
  def warmUp(): Unit

  def iteration(): Outcome

  /** Failed checks of the last iteration's KG' (empty when all hold). */
  def check(): Seq[String]

  /** Direct calls into single layers; returns failed checks. */
  def probes(): Seq[String] = Nil

  /** The timed end-to-end metrics, each with the spans whose durations sum
    * to it: ``fg_pipeline_s`` is the full-graph path, ``kgp_pipeline_s``
    * the KG-TOSA path, and ``tosg_s`` the TOSG (KG') extraction alone.
    */
  val pipelines: Seq[(String, Seq[String])] = Seq(
    "fg_pipeline_s" -> Seq("fg"), "kgp_pipeline_s" -> Seq("kgp"), "tosg_s" -> Seq("core.extract"))

  /** An iteration's outcome: task quality on FG and KG', the share of KG'
    * nodes that are targets (V_T%, Table III's data-sufficiency indicator),
    * and KG' forced in full. Keeps ``sub`` as [[kgp]] for [[check]].
    */
  protected def outcome(fgPct: Double, kgpPct: Double, sub: KG, targetTypes: Seq[Int],
                        layerSeconds: Map[String, Double] = Map.empty): Outcome = t("check") {
    val r = sub.nodeTypes.agg(count(lit(1)), sum(when(col("ntype").isin(targetTypes: _*), 1L).otherwise(0L))).head()
    val out = Outcome(
      Map("fg_quality_pct" -> fgPct, "kgp_quality_pct" -> kgpPct,
          "tosg_target_pct" -> 100.0 * r.getLong(1) / math.max(1L, r.getLong(0))),
      Map("kgp_triples" -> Force(sub.triples)), layerSeconds)
    if (kgp != null) kgp.uncache()
    kgp = sub
    out
  }

  /** Endpoint parallelism: the page-pool size of Algorithm 3, at most N. */
  protected def endpoint: Endpoint = new Endpoint(store, parallelism = math.min(8, c.cores))

  /** Endpoint.paginated on each subquery, then a direct BGP evaluation of
    * it for rows scanned vs returned; every output forced in full.
    */
  protected def subqueryProbes(queries: Seq[Query], bs: Long): Unit = {
    val ep = endpoint
    val bgp = new BGPExecutor(store)
    for (q <- queries) {
      val pages = t("rdf.subquery") {
        val (df, pages) = ep.paginated(q, bs)
        Force(df)
        pages
      }
      val scan = t("rdf.bgp")(Force(bgp.execute(q)))
      add("rdf.pages", pages)
      add("rdf.rows_scanned", scan.rowsScanned)
      add("rdf.rows_returned", scan.rows)
    }
  }

  /** DuckDB evaluation of ``sql`` over the KG's triples and node types must
    * equal ``sparkDf``; returns the failure, if any.
    */
  protected def oracle(label: String, sparkDf: DataFrame, sql: String): Seq[String] =
    try {
      Oracle.assertEquivalent(sparkDf, sql,
        "triples" -> kg.triples.select("s", "p", "o"), "nodes" -> kg.nodeTypes.select("id", "ntype"))
      Nil
    } catch { case NonFatal(e) => Seq(s"$label: ${e.getMessage}") }
}

/** Table IV's PV/MAG-42M row pair: FG transform + GraphSAINT, and
  * KG-TOSA d1h1 extraction + transform + GraphSAINT on KG'.
  */
final class NcPvMag extends Workload("nc-pv-mag", "MAG-42M") {
  private val task = Tasks.PV_MAG
  private val params = TrainParams(batches = 1, rootsPerBatch = 450)
  private val pattern = GraphPattern(1, 1)

  /** Page size: 20000 rows at scale 0.5 (two pages), scaled with the KG. */
  private def bs: Long = math.max(1L, math.round(40000 * c.scale))

  private def kgpPath(): (KG, TrainResult) = {
    val ex = t("core.extract")(KGTOSA.sparqlExtract(endpoint, task, pattern, bs))
    val tr = t("core.kgp_transform")(Transform.toAdjacency(ex.subgraph))
    tr.nodes.unpersist(); tr.edges.unpersist()
    (ex.subgraph, t("gnn.kgp_train")(Trainers.train("GraphSAINT", ex.subgraph, task, params)))
  }

  def warmUp(): Unit = kgpPath()._1.uncache()

  def iteration(): Outcome = t("iter") {
    val fg = t("fg") {
      val tr = t("core.fg_transform")(Transform.toAdjacency(kg))
      tr.nodes.unpersist(); tr.edges.unpersist()
      t("gnn.fg_train")(Trainers.train("GraphSAINT", kg, task, params))
    }
    val (sub, res) = t("kgp")(kgpPath())
    // Trainers.train times its training and inference parts itself
    outcome(fg.accuracy * 100, res.accuracy * 100, sub, Seq(kg.schema.nodeType(task.targetType).id),
      Map("gnn.fg_train_s" -> fg.trainSeconds, "gnn.fg_infer_s" -> fg.inferSeconds,
          "gnn.kgp_train_s" -> res.trainSeconds, "gnn.kgp_infer_s" -> res.inferSeconds))
  }

  def check(): Seq[String] =
    oracle("d1h1 KG' triples", kgp.triples,
      s"""SELECT DISTINCT t.s AS s, t.p AS p, t.o AS o FROM triples t JOIN nodes n ON t.s = n.id
         |WHERE n.ntype = '${kg.schema.nodeType(task.targetType).id}'""".stripMargin)

  override def probes(): Seq[String] = {
    subqueryProbes(pattern.queries(task.targetType), bs)
    val feats = Features.nodeFeatures(kg).cache()
    t("gnn.aggregate")(Force(Aggregation.aggregate(kg, feats, params.l, seed = params.seed)))
    t("gnn.saint_batch") {
      val vs = URW.visitedSet(kg, params.rootsPerBatch, params.walkLen, params.seed * 100)
      val sub = Induce.extractSubgraph(kg, vs)
      Force(Aggregation.aggregate(sub, feats.join(sub.nodeTypes.select("id"), "id"), params.l, seed = params.seed))
    }
    feats.unpersist()
    Nil
  }
}

/** LP task AA on DBLP-15M: KG-TOSA d2h1 + bridge extraction with small
  * pages, then MorsE on FG and on KG'. Traced runs also run Table III's
  * extraction block for PV/DBLP-15M on the same KG as probes.
  */
final class LpAaDblp extends Workload("lp-aa-dblp", "DBLP-15M") {
  private val task = Tasks.AA_DBLP
  private val pattern = GraphPattern(2, 1)
  private val TrainSeeds = 13 until 21

  /** Page size: 1000 rows at scale 0.5 (41 pages over 5 subqueries), scaled with the KG. */
  private def bs: Long = math.max(1L, math.round(2000 * c.scale))

  /** The predicate's subject and object types: the LP task's target types. */
  private def types: Seq[Int] = {
    val et = kg.schema.edgeType(task.predicate)
    Seq(et.srcType, et.dstType).distinct
  }

  /** Mean Hits@10 (%) of MorsE over [[TrainSeeds]] training seeds: one
    * run's Hits@10 moves by tens of points with the seed alone.
    */
  private def hits10(g: KG): Double =
    TrainSeeds.map(s => LinkPred.train(g, task, "MorsE", seed = s).hits10).sum * 100 / TrainSeeds.size

  private def kgpPath(): (KG, Double) = {
    val sub = t("core.extract")(KGTOSA.sparqlExtractLP(endpoint, task, pattern, bs)).subgraph
    (sub, t("gnn.lp_kgp_train")(hits10(sub)))
  }

  def warmUp(): Unit = kgpPath()._1.uncache()

  def iteration(): Outcome = t("iter") {
    val fg = t("fg")(t("gnn.lp_fg_train")(hits10(kg)))
    val (sub, kgpHits) = t("kgp")(kgpPath())
    outcome(fg, kgpHits, sub, types)
  }

  def check(): Seq[String] = {
    val in = types.map(i => s"'$i'").mkString(", ")
    oracle("d2h1+bridge KG' triples", kgp.triples,
      s"""SELECT DISTINCT t.s AS s, t.p AS p, t.o AS o FROM triples t
         |WHERE t.s IN (SELECT id FROM nodes WHERE ntype IN ($in))
         |   OR t.o IN (SELECT id FROM nodes WHERE ntype IN ($in))
         |   OR EXISTS (SELECT 1 FROM triples b
         |              WHERE b.p = '${kg.schema.edgeType(task.predicate).id}' AND b.s = t.s AND b.o = t.o)""".stripMargin)
  }

  override def probes(): Seq[String] = {
    val names = types.map(kg.schema.nodeTypes(_).name)
    subqueryProbes(pattern.lpQueries(names.head, names.last, task.predicate), bs)
    table3()
  }

  /** Table III's block for PV/DBLP-15M: URW, BRW, IBS (k = 16, α = 0.25)
    * and KG-TOSA d1h1 around the same 500 sampled targets, h = 3, each
    * followed by its quality measurement, plus IBS's PPR alone. BRW, IBS
    * and d1h1 must leave no node disconnected from the targets.
    */
  private def table3(): Seq[String] = {
    val pv = Tasks.PV_DBLP
    val (roots, h, seed) = (500, 3, 17)
    val targets = Tasks.targets(kg, pv).cache()
    val sample = RandomWalk.sampleIds(targets, roots, seed = 99).cache()
    targets.count(); sample.count()
    val quality = Seq[(String, String, () => repro.core.Extraction)](
      ("URW", "sampling.urw", () => KGTOSA.urwExtract(kg, roots, h, seed)),
      ("BRW", "sampling.brw", () => KGTOSA.brwExtract(kg, pv, roots, h, seed)),
      ("IBS", "sampling.ibs", () => KGTOSA.ibsExtract(kg, pv, roots, k = 16, alpha = 0.25, seed)),
      ("d1h1", "core.extract_sample", () =>
        KGTOSA.sparqlExtract(endpoint, pv, GraphPattern(1, 1), bs = 500000, targetSample = Some(sample))),
    ).map { case (method, span, extract) =>
      val ex = t(span)(extract())
      val q = t("metrics.quality")(SubgraphQuality.measure(ex.subgraph, targets))
      ex.subgraph.uncache()
      Main.log(f"Table III $method: V_T ${q.targetPct}%.1f%%, disconnected ${q.targetDisconPct}%.1f%%, " +
        f"avg dist ${q.avgDistToTarget}%.2f, entropy ${q.avgEntropy}%.2f")
      method -> q
    }
    t("sampling.ppr")(Force(PPR.scores(kg, RandomWalk.sampleIds(targets, roots, seed), alpha = 0.25)))
    targets.unpersist(); sample.unpersist()
    quality.collect { case (m, q) if m != "URW" && q.targetDisconPct != 0.0 =>
      f"$m leaves ${q.targetDisconPct}%.2f%% of nodes disconnected from the targets"
    }
  }
}

object Workloads {
  def apply(name: String): Workload = name match {
    case "nc-pv-mag"  => new NcPvMag
    case "lp-aa-dblp" => new LpAaDblp
    case other        => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
