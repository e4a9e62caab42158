package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.kg.{KG, KGSchema, NodeTypeInfo}
import repro.synth.{KGBench, KGSpec, LPTask, NCTask, RandomSplit, TimeSplit}

/** The Column forms of the hash draw, the generator, the node features and
  * the task splits: Spark expressions, evaluated by Spark's own ``hash``,
  * ``pow`` and arithmetic. The program computes all of these in plain Scala
  * ([[KG.bucket]], [[KG.uniform]], [[KGBench.zipf]], ``Features.row``,
  * ``Tasks.labelAndFold``); the tests hold them to these forms row for row.
  */
object ColumnOracle {

  /** Spark's ``pmod(hash(cols, salt), 1e6)``: the Column form of [[KG.bucket]]. */
  def hashBucket(salt: Column, cols: Column*): Column = pmod(hash((cols :+ salt): _*), lit(1000000))

  /** The uniform(0,1) draw of [[hashBucket]]: the Column form of [[KG.uniform]]. */
  def hashRand(salt: Int, cols: Column*): Column =
    (hashBucket(lit(salt), cols: _*).cast("double") + 0.5) / 1000000.0

  /** The Column form of [[KGBench.zipf]]. */
  def zipfExpr(u: Column, nKeys: Long, alpha: Double): Column =
    least(lit(nKeys - 1),
          greatest(lit(0L),
            (pow(lit(1.0) / (u + 1e-9), lit(1.0 / alpha)) - 1.0).cast("long")))

  private def sc(x: Long, scale: Double): Long = math.max(1L, math.round(x * scale))

  private def commCol(s: Column, t: NodeTypeInfo, c: Int): Column =
    pmod(s - t.offset, lit(c.toLong)).cast("int")

  private def affinityDst(comm: Column, u: Column, dt: NodeTypeInfo, c: Int, zipf: Double): Column = {
    val blocks = math.max(1L, dt.count / c)
    val block = if (zipf > 0) zipfExpr(u, blocks, zipf) else floor(u * blocks).cast("long")
    least(lit(dt.offset + dt.count - 1),
          (lit(dt.offset) + comm + block * c).cast("long"))
  }

  /** [[KGBench.generate]] as a union of ``spark.range`` projections, one per
    * edge type, filler and node type.
    */
  def generate(spark: SparkSession, spec: KGSpec, scale: Double = 1.0): KG = {
    val schema = KGBench.schemaFor(spec, scale)
    val c = spec.communities

    val coreDfs = spec.coreEdges.zipWithIndex.map { case (ce, i) =>
      val info = schema.edgeTypes(i)
      val st = schema.nodeTypes(info.srcType)
      val dt = schema.nodeTypes(info.dstType)
      val n = sc(ce.count, scale)
      val salt = spec.seed * 1000 + i * 10
      val u1 = hashRand(salt + 1, col("id"))
      val u2 = hashRand(salt + 2, col("id"))
      val u3 = hashRand(salt + 3, col("id"))
      val u4 = hashRand(salt + 4, col("id"))
      val src = (lit(st.offset) + floor(u1 * st.count)).cast("long")
      val comm = commCol(src, st, c)
      val baseDst =
        if (ce.zipf > 0) lit(dt.offset) + zipfExpr(u2, dt.count, ce.zipf)
        else (lit(dt.offset) + floor(u2 * dt.count)).cast("long")
      val affDst = affinityDst(comm, u3, dt, c, ce.zipf)
      val dst = when(u4 < ce.affinity, affDst).otherwise(baseDst)
      spark.range(n).select(src as "s", lit(info.id) as "p", dst.cast("long") as "o")
    }

    val fT = spec.filler.nTypes
    val fE = spec.filler.eTypes
    val perNode = sc(spec.filler.nodesPerType, scale)
    val perEdge = sc(spec.filler.edgesPerType, scale)
    val fillerNodeBase = schema.nodeTypes(spec.coreNodes.size).offset
    val fillerDf = if (fE == 0) None else Some {
      val salt = spec.seed * 1000 + 777
      val j = (col("id") % fE).cast("int")
      val u1 = hashRand(salt + 1, col("id"))
      val u2 = hashRand(salt + 2, col("id"))
      val srcOff = lit(fillerNodeBase) + (j % fT).cast("long") * perNode
      val dstOff = lit(fillerNodeBase) + ((j * 7 + 3) % fT).cast("long") * perNode
      spark.range(fE.toLong * perEdge).select(
        (srcOff + floor(u1 * perNode)).cast("long") as "s",
        (lit(spec.coreEdges.size) + j).cast("int") as "p",
        (dstOff + floor(u2 * perNode)).cast("long") as "o",
      )
    }

    val triples = (coreDfs ++ fillerDf).reduce(_ union _)

    val coreNodesDf = schema.nodeTypes.take(spec.coreNodes.size).map { t =>
      spark.range(t.offset, t.offset + t.count).select(col("id"), lit(t.id) as "ntype")
    }
    val fillerNodesDf =
      if (fT == 0) None
      else Some {
        spark.range(fillerNodeBase, fillerNodeBase + fT.toLong * perNode).select(
          col("id"),
          (lit(spec.coreNodes.size) + floor((col("id") - fillerNodeBase) / perNode)).cast("int") as "ntype",
        )
      }
    val nodeTypes = (coreNodesDf ++ fillerNodesDf).reduce(_ union _)

    KG(schema, triples, nodeTypes)
  }

  /** ``Features.nodeFeatures`` as one projection of the node-type table. */
  def nodeFeatures(g: KG, seed: Int = 5, sigma: Double = 0.6): DataFrame = {
    val schema = g.schema
    val signalIds = repro.gnn.Features.signalTypesFor(schema.name).map(schema.nodeType(_).id).toSet
    val offset = typedLit(schema.nodeTypes.map(_.offset)).getItem(col("ntype"))
    val signal = typedLit(schema.nodeTypes.map(t => if (signalIds.contains(t.id)) 1.0 else 0.0)).getItem(col("ntype"))
    val comm = pmod(col("id") - offset, lit(schema.communities.toLong))
    val cols = (0 until schema.communities).map { j =>
      val indicator = when(comm === j, 1.0).otherwise(0.0) * signal
      val noise = (hashRand(seed * 131 + j, col("id")) - 0.5) * sigma
      (indicator + noise) as s"f$j"
    }
    g.nodeTypes.select(col("id") +: cols: _*)
  }

  private def foldCol(q: Column, ratios: (Double, Double, Double)) =
    when(q < ratios._1, 0).when(q < ratios._1 + ratios._2, 1).otherwise(2)

  private def labelAndFold(schema: KGSchema, task: NCTask): (Column, Column) = {
    val t = schema.nodeType(task.targetType)
    val comm = pmod(col("id") - t.offset, lit(schema.communities.toLong)).cast("int")
    val q = task.split match {
      case TimeSplit   => (col("id") - t.offset).cast("double") / t.count
      case RandomSplit => hashRand(9001, col("id"))
    }
    (pmod(comm, lit(task.numLabels)), foldCol(q, task.ratios))
  }

  /** ``Tasks.labeledSplit`` as a projection of the targets. */
  def labeledSplit(kg: KG, task: NCTask): DataFrame = {
    val (label, fold) = labelAndFold(kg.schema, task)
    kg.nodesOfType(task.targetType).select(col("id"), label as "label", fold as "fold")
  }

  /** ``Tasks.lpSplit`` as a projection of the predicate's triples. */
  def lpSplit(kg: KG, task: LPTask): DataFrame = {
    val p = kg.schema.edgeType(task.predicate)
    val q = task.split match {
      case TimeSplit   => hashRand(9002, col("s"), col("o"))
      case RandomSplit => hashRand(9003, col("s"), col("o"))
    }
    kg.triples.filter(col("p") === p.id).select(col("s"), col("p"), col("o"), foldCol(q, task.ratios) as "fold")
  }
}
