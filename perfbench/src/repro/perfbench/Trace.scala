package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** One named span: a wall-clock interval on the benchmark's thread, its
  * parent, and the Spark work attributed to it while it was the innermost
  * open span (its *own* counters; [[Tracer.subtree]] adds descendants).
  */
final class Span(val id: Int, val name: String, val parent: Int, val start: Long) {
  var end: Long = start
  var jobs, stages, tasks = 0L
  var busyMs, shuffleBytes, spillBytes = 0L
  val jobMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty

  def seconds: Double = (end - start) / 1e9
}

/** Named, nested spans around the benchmark's calls into the program.
  *
  * Spans are opened on the benchmark's own thread. When [[enabled]], the
  * innermost open span's id is set as a Spark local property, so every
  * job submitted under it — also from worker threads the program starts
  * inside the span (e.g. `Endpoint`'s page pool), which inherit local
  * properties — is attributed to it by the [[Attribution]] listener.
  * When disabled, spans only record wall time and Spark is left untouched.
  */
final class Tracer(spark: SparkSession) {
  private var sc: SparkContext = spark.sparkContext
  private val all = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private val attribution = new Attribution(id => all.synchronized(all(id)))
  private var on = false

  def enabled: Boolean = on

  /** Attach (or detach) the attribution listener; spans opened afterwards
    * are (or are not) attributed. Detaching waits for pending events.
    */
  def setEnabled(enable: Boolean): Unit = if (enable != on) {
    if (enable) sc.addSparkListener(attribution)
    else { drain(); sc.removeSparkListener(attribution) }
    on = enable
  }

  /** Follow a new Spark session (the previous one has been stopped). */
  def bind(next: SparkSession): Unit = {
    val wasOn = on
    on = false
    sc = next.sparkContext
    setEnabled(wasOn)
  }

  /** Jobs that started with no span attached while tracing was on. */
  def unattributedJobs: Long = attribution.unattributed

  def apply[T](name: String)(body: => T): T = {
    val parent = open.headOption.map(_.id).getOrElse(-1)
    val s = new Span(all.size, name, parent, System.nanoTime())
    all.synchronized(all += s)
    open = s :: open
    if (enabled) sc.setLocalProperty(Tracer.Key, s.id.toString)
    try body
    finally {
      s.end = System.nanoTime()
      open = open.tail
      if (enabled) sc.setLocalProperty(Tracer.Key, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Wait until the listener has seen every event posted so far. */
  def drain(): Unit = if (enabled) org.apache.spark.PerfbenchBus.drain(sc)

  /** Every span recorded since ``from`` (an index from [[mark]]). */
  def since(from: Int): Seq[Span] = all.drop(from).toSeq

  def mark: Int = all.size

  def named(name: String): Seq[Span] = all.filter(_.name == name).toSeq

  def children(s: Span): Seq[Span] = all.view.drop(s.id + 1).filter(_.parent == s.id).toSeq

  /** ``s`` and all its descendants. */
  def subtree(s: Span): Seq[Span] = s +: children(s).flatMap(subtree)

  /** The outermost layer spans at or below ``s``. */
  def topLayers(s: Span): Seq[Span] = if (Tracer.isLayer(s)) Seq(s) else children(s).flatMap(topLayers)
}

object Tracer {
  val Key = "perfbench.span"

  /** Spans named for one of the program's layers (``core.extract``, ...). */
  val Layers: Set[String] = Set("synth", "rdf", "core", "sampling", "metrics", "gnn")

  def isLayer(s: Span): Boolean = Layers.contains(s.name.takeWhile(_ != '.'))
}

/** Attributes Spark jobs, completed stages and finished tasks (with their
  * executor run time, shuffle-write bytes and spill) to the span named by
  * the submitting thread's [[Tracer.Key]] local property.
  */
final class Attribution(span: Int => Span) extends SparkListener {
  private val jobSpan = mutable.Map.empty[Int, (Int, Long)]
  private val stageSpan = mutable.Map.empty[Int, Int]
  @volatile var unattributed = 0L

  private def spanOf(id: Int): Option[Span] = if (id < 0) None else Some(span(id))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.Key))).map(_.toInt).getOrElse(-1)
    if (id < 0) unattributed += 1
    jobSpan(e.jobId) = (id, e.time)
    e.stageIds.foreach(stageSpan(_) = id)
    spanOf(id).foreach(_.jobs += 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.remove(e.jobId).foreach { case (id, t0) => spanOf(id).foreach(_.jobMs += (e.time - t0).toDouble) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).flatMap(spanOf).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (id <- stageSpan.get(e.stageId); s <- spanOf(id)) {
      s.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        s.busyMs += m.executorRunTime
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        s.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
  }
}

/** JVM counters: cumulative GC time and peak heap since [[reset]]. */
object Jvm {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == java.lang.management.MemoryType.HEAP)

  def reset(): Unit = heapPools.foreach(_.resetPeakUsage())

  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
