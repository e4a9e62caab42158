package repro.perfbench

import org.apache.spark.sql.SparkSession

/** The benchmark's JVM entry point; `perfbench/run.py` builds and launches it.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --cores <N>
  * }}}
  *
  * A run sets up [[SetupReps]] times (fresh Spark session, KG generation,
  * store build) and runs the KG-TOSA path once as a warm-up. It then
  * measures pipeline iterations until ``--seconds`` of iteration time have
  * passed; the first iteration's KG' is checked against an independent
  * evaluation, outside the timing, and every later one must reproduce its
  * quality figures and checksums. Untraced runs print the end-to-end
  * metrics: medians over the measured iterations. Traced runs first call
  * single layers directly, then alternate traced and untraced iterations
  * (the difference is the tracing overhead), and print the per-layer
  * metrics.
  */
object Main {

  /** KG scale: 1.0 = 1/1000 of the paper's sizes (DESIGN.md §2). */
  val Scale = 0.1
  val ShufflePartitions = 8
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads(opts("workload"))
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val cores = opts.getOrElse("cores", Runtime.getRuntime.availableProcessors.toString).toInt
    val seed = opts.get("seed").map(_.toInt).getOrElse(repro.synth.KGBench.spec(w.kgName).seed)

    var spark: SparkSession = null
    var tracer: Tracer = null
    val setupSpans = (1 to SetupReps).map { _ =>
      if (spark != null) { w.close(); spark.stop() }
      val t0 = System.nanoTime()
      spark = session(cores)
      if (tracer == null) tracer = new Tracer(spark) else tracer.bind(spark)
      tracer.setEnabled(traced)
      val mark = tracer.mark
      tracer("setup")(w.setup(Ctx(spark, tracer, Scale, cores), seed))
      val secs = (System.nanoTime() - t0) / 1e9
      log(f"setup $secs%.2fs")
      (tracer.since(mark).head, secs)
    }
    val t = tracer
    Jvm.reset()

    def breakdown(s: Span): String =
      t.subtree(s).filter(Tracer.isLayer).map(c => f"${c.name} ${c.seconds}%.2fs").mkString(", ")
    t("warmup")(w.warmUp())
    log(f"warm-up ${t.named("warmup").last.seconds}%.2fs: " + breakdown(t.named("warmup").last))
    val failures = collection.mutable.ArrayBuffer.empty[String]
    if (traced) {
      failures ++= t("probes")(w.probes())
      log(f"probes ${t.named("probes").last.seconds}%.2fs")
    }

    // Measured iterations, until --seconds of iteration time; a traced run
    // alternates traced and untraced ones. The first iteration's KG' is
    // checked after it, outside the timing.
    val iters = collection.mutable.ArrayBuffer.empty[Iteration]
    var failed = 0
    def measured = iters.map(_.span.seconds).sum
    while (iters.size < (if (traced) 2 else 1) || measured < seconds) {
      val on = traced && iters.size % 2 == 0
      t.setEnabled(on)
      val gc0 = Jvm.gcSeconds
      val mark = t.mark
      val out = w.iteration()
      val iter = t.since(mark).find(_.name == "iter").get
      log(f"iteration ${iters.size + 1}${if (on) " (traced)" else ""} ${iter.seconds}%.2fs: " + breakdown(iter))
      iters += Iteration(iter, on, Jvm.gcSeconds - gc0, out)
      t.setEnabled(traced)
      val bad =
        if (iters.size == 1) {
          val checked = t("check")(w.check())
          log(f"checks ${t.named("check").last.seconds}%.2fs, ${checked.size} failed")
          checked
        } else if (out.sameAs(iters.head.outcome)) Nil
        else Seq(s"iteration ${iters.size} differs from the first: ${out.quality} vs ${iters.head.outcome.quality}")
      if (bad.nonEmpty) failed += 1
      failures ++= bad
    }
    t.drain()
    val first = iters.head.outcome

    val metrics = new Metrics(t, w, cores)
    val result =
      if (traced) metrics.perLayer(setupSpans.map(_._1), iters.toSeq, first)
      else metrics.endToEnd(setupSpans.map(_._2), iters.map(_.span).toSeq, first)
    failures.foreach(f => Console.err.println(s"perfbench: check failed: $f"))
    println("META " + Json.obj(Map(
      "workload" -> w.name, "seed" -> seed, "trace" -> traced, "scale" -> Scale, "cores" -> cores,
      "shuffle_partitions" -> ShufflePartitions, "setup_reps" -> SetupReps,
      "driver_heap" -> sys.props.getOrElse("perfbench.heap", ""),
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "spark" -> spark.version, "iterations" -> iters.size, "measured_s" -> measured,
      "failures" -> failures.toSeq)))
    println("RESULT " + Json.obj(Map(
      "correct" -> failures.isEmpty, "attempted" -> iters.size, "failed" -> failed,
      "metrics" -> result.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })))
    w.close()
    spark.stop()
  }

  private val t00 = System.nanoTime()

  /** Progress on stderr, stamped with seconds since start. */
  def log(msg: String): Unit = Console.err.println(f"perfbench [${(System.nanoTime() - t00) / 1e9}%6.1f] $msg")

  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.maxPlanStringLength", 8192)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", ".bench_build/spark-local")
      .config("spark.sql.warehouse.dir", ".bench_build/spark-warehouse")
      .getOrCreate()
}

/** One measured iteration: its span, whether it was traced, the GC time
  * it saw, and its outcome.
  */
final case class Iteration(span: Span, traced: Boolean, gcSeconds: Double, outcome: Outcome)

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {
  def obj(m: Map[String, Any]): String = render(m)

  def render(v: Any): String = v match {
    case m: Map[_, _] => m.toSeq.sortBy(_._1.toString).map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }
      .mkString("{", ", ", "}")
    case s: Seq[_]    => s.map(render).mkString("[", ", ", "]")
    case s: String    => str(s)
    case d: Double    => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean   => b.toString
    case n: Number    => n.toString
    case null         => "null"
    case other        => str(other.toString)
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case ch if ch < ' ' => f"\\u${ch.toInt}%04x"
      case ch   => ch.toString
    } + "\""
}
