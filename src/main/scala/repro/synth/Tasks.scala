package repro.synth

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}

import repro.kg.{KG, KGSchema}

/** Train/valid/test split scheme of a task (Table II "Split" column).
  * ``TimeSplit`` is the time-surrogate: position within the id range stands
  * in for publication time (ids are allocated in insertion order).
  */
sealed trait SplitKind
case object TimeSplit extends SplitKind
case object RandomSplit extends SplitKind

/** A single-label node-classification task (Definition 2.2). */
final case class NCTask(
    name: String,
    kgName: String,
    targetType: String,
    numLabels: Int,
    split: SplitKind,
    ratios: (Double, Double, Double),
) {
  require(math.abs(ratios._1 + ratios._2 + ratios._3 - 1.0) < 1e-9, s"ratios of $name must sum to 1")
}

/** A missing-entity link-prediction task for one predicate (Definition 2.3). */
final case class LPTask(
    name: String,
    kgName: String,
    predicate: String,
    split: SplitKind,
    ratios: (Double, Double, Double),
) {
  require(math.abs(ratios._1 + ratios._2 + ratios._3 - 1.0) < 1e-9, s"ratios of $name must sum to 1")
}

/** The nine benchmark tasks of Table II, plus label/split materialisation.
  *
  * NC labels are the planted community (mod the task's label count); the
  * label-defining relation itself is *not* an edge type of the KG (as in
  * OGBN-MAG, where ``publishedIn`` edges are withheld), so labels must be
  * learned from the neighbourhood signal planted by edge affinity.
  */
object Tasks {

  // -- Table II: node classification ---------------------------------------
  val PV_MAG: NCTask  = NCTask("PV",  "MAG-42M",  "Paper",        20, TimeSplit,   (0.84, 0.09, 0.07))
  val PD_MAG: NCTask  = NCTask("PD",  "MAG-42M",  "Paper",         5, TimeSplit,   (0.87, 0.08, 0.05))
  val PC_YAGO: NCTask = NCTask("PC",  "YAGO-30M", "Place",        16, RandomSplit, (0.80, 0.10, 0.10))
  val CG_YAGO: NCTask = NCTask("CG",  "YAGO-30M", "CreativeWork",  8, RandomSplit, (0.80, 0.10, 0.10))
  val PV_DBLP: NCTask = NCTask("PV",  "DBLP-15M", "Publication",  16, TimeSplit,   (0.79, 0.10, 0.11))
  val AC_DBLP: NCTask = NCTask("AC",  "DBLP-15M", "Author",        8, TimeSplit,   (0.80, 0.10, 0.10))

  val ncTasks: Seq[NCTask] = Seq(PV_MAG, PD_MAG, PC_YAGO, CG_YAGO, PV_DBLP, AC_DBLP)

  // -- Table II: link prediction --------------------------------------------
  val AA_DBLP: LPTask   = LPTask("AA", "DBLP-15M",     "authorAff",    TimeSplit,   (0.99, 0.007, 0.003))
  val PO_WIKI: LPTask   = LPTask("PO", "ogbl-wikikg2", "occupationOf", TimeSplit,   (0.94, 0.025, 0.035))
  val CA_YAGO3: LPTask  = LPTask("CA", "YAGO3-10",     "isCitizenOf",  RandomSplit, (0.99, 0.005, 0.005))

  val lpTasks: Seq[LPTask] = Seq(AA_DBLP, PO_WIKI, CA_YAGO3)

  /** NC task lookup by "name/kg" key, e.g. "PV/MAG-42M". */
  def nc(key: String): NCTask =
    ncTasks.find(t => s"${t.name}/${t.kgName}" == key)
      .getOrElse(throw new NoSuchElementException(s"unknown NC task $key"))

  /** Target vertices ``V_T`` of an NC task as a single-column DF ``id``. */
  def targets(kg: KG, task: NCTask): DataFrame = kg.nodesOfType(task.targetType)

  /** Fold: 0 = train, 1 = valid, 2 = test, from a position or hash
    * quantile ``q`` in [0,1) and the task ratios.
    */
  private def foldOf(q: Double, ratios: (Double, Double, Double)): Int =
    if (q < ratios._1) 0 else if (q < ratios._1 + ratios._2) 1 else 2

  /** Label and fold of an NC task as a function of the node id (meaningful
    * on ``V_T``): label = planted community mod ``numLabels``; fold per the
    * task's split kind and ratios, a time split by the id's position in its
    * type range and a random one by the [[KG.bucket]] draw with salt 9001.
    * Deterministic in (schema, task).
    */
  def labelAndFold(schema: KGSchema, task: NCTask): Long => (Int, Int) = {
    val t = schema.nodeType(task.targetType)
    val c = schema.communities.toLong
    id => {
      val q = task.split match {
        case TimeSplit   => (id - t.offset).toDouble / t.count
        case RandomSplit => KG.uniform(KG.bucket(9001, id))
      }
      (Math.floorMod(Math.floorMod(id - t.offset, c).toInt, task.numLabels), foldOf(q, task.ratios))
    }
  }

  /** Labels + folds for an NC task: DF ``(id, label, fold)`` over ``V_T``,
    * from [[labelAndFold]].
    */
  def labeledSplit(kg: KG, task: NCTask): DataFrame = {
    val (t, draw) = (kg.schema.nodeType(task.targetType), labelAndFold(kg.schema, task))
    val rows = kg.nodeRows.collect { case (id, _) if t.contains(id) => val (label, fold) = draw(id); Row(id, label, fold) }
    kg.nodeTypes.sparkSession.createDataFrame(rows, StructType(Seq(StructField("id", LongType, nullable = false),
      StructField("label", IntegerType), StructField("fold", IntegerType, nullable = false))))
  }

  /** Edge folds for an LP task: DF ``(s, p, o, fold)`` over the target
    * predicate's triples. Both splits draw on the endpoint pair ``(s, o)``
    * ([[KG.bucket]]), with salt 9002 for a time split and 9003 for a random
    * one. Unlike a node, an edge has no id position to stand in for time.
    */
  def lpSplit(kg: KG, task: LPTask): DataFrame = {
    val p = kg.schema.edgeType(task.predicate).id
    val salt = task.split match {
      case TimeSplit   => 9002
      case RandomSplit => 9003
    }
    val rows = kg.tripleRows.filter(_._2 == p)
      .map { case (s, _, o) => Row(s, p, o, foldOf(KG.uniform(KG.bucket(salt, s, o)), task.ratios)) }
    kg.triples.sparkSession.createDataFrame(rows, StructType(Seq(StructField("s", LongType),
      StructField("p", IntegerType), StructField("o", LongType), StructField("fold", IntegerType, nullable = false))))
  }
}
