package repro.perfbench

/** Turns a run's spans and outcomes into the named metrics of
  * `BENCHMARK.json`: value and unit by name.
  */
final class Metrics(t: Tracer, w: Workload, cores: Int) {
  type Result = Map[String, (Double, String)]

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  private def named(root: Span, name: String): Seq[Span] = t.subtree(root).filter(_.name == name)
  private def secs(root: Span, names: String*): Double = names.flatMap(named(root, _)).map(_.seconds).sum

  /** ``f`` summed over the spans ``names`` under ``root`` and their descendants. */
  private def incl(root: Span, names: String*)(f: Span => Double): Double =
    names.flatMap(named(root, _)).flatMap(t.subtree).map(f).sum

  /** The timed part of an iteration: everything but its output checks. */
  private def pipelineSpans(iter: Span): Seq[Span] = t.children(iter).filter(_.name != "check")

  private def pipelineSeconds(iter: Span): Double = pipelineSpans(iter).map(_.seconds).sum

  private val qualityNames = Seq("fg_quality_pct", "kgp_quality_pct", "tosg_target_pct")

  /** Medians over the measured iterations, set-up time and result quality. */
  def endToEnd(setupSeconds: Seq[Double], iters: Seq[Span], first: Outcome): Result =
    Map("setup_s" -> (median(setupSeconds), "s")) ++
      w.pipelines.map { case (metric, spans) => metric -> (median(iters.map(secs(_, spans: _*))), "s") } ++
      qualityNames.flatMap(q => first.quality.get(q).map(v => q -> (v, "%")))

  /** Per-layer medians over the traced iterations, the probes' figures,
    * the set-up layers, and the trace's own coverage and overhead.
    */
  def perLayer(setups: Seq[Span], iters: Seq[Iteration], first: Outcome): Result = {
    val (traced, untraced) = iters.partition(_.traced)
    def overIters(f: Span => Double): Double = median(traced.map(i => f(i.span)))
    def inPipelines(iter: Span)(f: Span => Double): Double = pipelineSpans(iter).flatMap(t.subtree).map(f).sum
    def layerSeconds(k: String): Double = median(traced.map(_.outcome.layerSeconds.getOrElse(k, 0.0)))
    def probe(name: String): Double = t.named(name).map(_.seconds).sum
    def probeIncl(name: String)(f: Span => Double): Double = t.named(name).flatMap(t.subtree).map(f).sum
    val mb = 1048576.0

    val pageJobs = t.named("rdf.subquery").flatMap(t.subtree).flatMap(_.jobMs)
    val hiPct = Metrics.highPercentile(pageJobs.size)
    val hiMs = Metrics.percentile(pageJobs, hiPct)
    val scanned = w.probeCounts.getOrElse("rdf.rows_scanned", 0.0)
    val returned = w.probeCounts.getOrElse("rdf.rows_returned", 0.0)
    val covered = traced.map(i => pipelineSpans(i.span).flatMap(t.topLayers).map(_.seconds).sum).sum
    val wall = traced.map(i => pipelineSeconds(i.span)).sum
    val tracedS = median(traced.map(i => pipelineSeconds(i.span)))
    val untracedS = median(untraced.map(i => pipelineSeconds(i.span)))

    Map[String, (Double, String)](
      "synth.generate_s" -> (median(setups.map(secs(_, "synth.generate"))), "s"),
      "rdf.warm_s" -> (median(setups.map(secs(_, "rdf.warm"))), "s"),
      "rdf.warm_stages" -> (median(setups.map(incl(_, "rdf.warm")(_.stages.toDouble))), "count"),
      "core.extract_s" -> (overIters(secs(_, "core.extract")), "s"),
      "core.extract_jobs" -> (overIters(incl(_, "core.extract")(_.jobs.toDouble)), "count"),
      "core.extract_stages" -> (overIters(incl(_, "core.extract")(_.stages.toDouble)), "count"),
      "core.extract_shuffle_mb" -> (overIters(incl(_, "core.extract")(_.shuffleBytes / mb)), "MB"),
      "core.kgp_triples" -> (first.outputs.get("kgp_triples").map(_.rows.toDouble).getOrElse(0.0), "count"),
      "rdf.subquery_s" -> (probe("rdf.subquery"), "s"),
      "rdf.pages" -> (w.probeCounts.getOrElse("rdf.pages", 0.0), "count"),
      "rdf.page_job_ms_p50" -> (Metrics.percentile(pageJobs, 50), "ms"),
      "rdf.page_job_ms_phi" -> (hiMs, "ms"),
      "rdf.page_job_phi_pct" -> (hiPct, "%"),
      "rdf.page_job_samples" -> (pageJobs.size.toDouble, "count"),
      "rdf.rows_scanned" -> (scanned, "count"),
      "rdf.rows_returned" -> (returned, "count"),
      "rdf.scan_ratio" -> (if (scanned == 0) 0.0 else returned / scanned, "ratio"),
      "core.fg_transform_s" -> (overIters(secs(_, "core.fg_transform")), "s"),
      "core.kgp_transform_s" -> (overIters(secs(_, "core.kgp_transform")), "s"),
      "core.transform_stages" ->
        (overIters(incl(_, "core.fg_transform", "core.kgp_transform")(_.stages.toDouble)), "count"),
      "gnn.fg_train_s" -> (layerSeconds("gnn.fg_train_s"), "s"),
      "gnn.kgp_train_s" -> (layerSeconds("gnn.kgp_train_s"), "s"),
      "gnn.fg_infer_s" -> (layerSeconds("gnn.fg_infer_s"), "s"),
      "gnn.kgp_infer_s" -> (layerSeconds("gnn.kgp_infer_s"), "s"),
      "gnn.train_jobs" -> (overIters(incl(_, "gnn.fg_train", "gnn.kgp_train")(_.jobs.toDouble)), "count"),
      "gnn.train_stages" -> (overIters(incl(_, "gnn.fg_train", "gnn.kgp_train")(_.stages.toDouble)), "count"),
      "gnn.train_tasks" -> (overIters(incl(_, "gnn.fg_train", "gnn.kgp_train")(_.tasks.toDouble)), "count"),
      "gnn.train_shuffle_mb" ->
        (overIters(incl(_, "gnn.fg_train", "gnn.kgp_train")(_.shuffleBytes / mb)), "MB"),
      "gnn.aggregate_s" -> (probe("gnn.aggregate"), "s"),
      "gnn.saint_batch_s" -> (probe("gnn.saint_batch"), "s"),
      "gnn.lp_fg_train_s" -> (overIters(secs(_, "gnn.lp_fg_train")), "s"),
      "gnn.lp_kgp_train_s" -> (overIters(secs(_, "gnn.lp_kgp_train")), "s"),
      "sampling.urw_s" -> (probe("sampling.urw"), "s"),
      "sampling.brw_s" -> (probe("sampling.brw"), "s"),
      "sampling.ibs_s" -> (probe("sampling.ibs"), "s"),
      "sampling.ppr_s" -> (probe("sampling.ppr"), "s"),
      "sampling.ibs_stages" -> (probeIncl("sampling.ibs")(_.stages.toDouble), "count"),
      "sampling.ibs_shuffle_mb" -> (probeIncl("sampling.ibs")(_.shuffleBytes / mb), "MB"),
      "metrics.quality_s" -> (probe("metrics.quality"), "s"),
      "metrics.quality_jobs" -> (probeIncl("metrics.quality")(_.jobs.toDouble), "count"),
      "spark.jobs" -> (overIters(inPipelines(_)(_.jobs.toDouble)), "count"),
      "spark.stages" -> (overIters(inPipelines(_)(_.stages.toDouble)), "count"),
      "spark.tasks" -> (overIters(inPipelines(_)(_.tasks.toDouble)), "count"),
      "spark.shuffle_mb" -> (overIters(inPipelines(_)(_.shuffleBytes / mb)), "MB"),
      "spark.spill_mb" -> (overIters(inPipelines(_)(_.spillBytes / mb)), "MB"),
      "spark.task_busy_s" -> (overIters(inPipelines(_)(_.busyMs / 1e3)), "s"),
      "spark.core_util" ->
        (overIters(i => inPipelines(i)(_.busyMs / 1e3) / (pipelineSeconds(i) * cores)), "ratio"),
      "jvm.gc_s" -> (median(traced.map(_.gcSeconds)), "s"),
      "jvm.heap_peak_mb" -> (Jvm.heapPeakMb, "MB"),
      "trace.unattributed_jobs" -> (t.unattributedJobs.toDouble, "count"),
      "trace.coverage_pct" -> (if (wall == 0) 0.0 else 100 * covered / wall, "%"),
      "trace.overhead_s" -> (tracedS - untracedS, "s"),
      "trace.overhead_pct" -> (if (untracedS == 0) 0.0 else 100 * (tracedS - untracedS) / untracedS, "%"),
      "trace.iterations" -> (traced.size.toDouble, "count"),
    )
  }
}

object Metrics {

  /** The highest of p75/p90/p95/p99 with at least ten of ``n`` samples
    * above it; 50 when there are fewer than 20 samples.
    */
  def highPercentile(n: Int): Double =
    Seq(99.0, 95.0, 90.0, 75.0).find(p => n * (1 - p / 100) >= 10).getOrElse(50.0)

  /** Nearest-rank percentile; 0 for no samples. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0 else xs.sorted.apply((math.ceil(p / 100 * xs.size).toInt - 1).max(0))
}
