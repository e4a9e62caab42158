package repro.gnn

import breeze.linalg.{argmax, DenseMatrix, DenseVector}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.kg.KG
import repro.sampling.RandomWalk
import repro.synth.{NCTask, Tasks}
import repro.{release, timed}

/** Hyper-parameters shared by the trainer variants. */
final case class TrainParams(
    l: Int = 2,
    epochs: Int = 200,
    lr: Double = 0.5,
    batches: Int = 6,
    rootsPerBatch: Int = 150,
    walkLen: Int = 2,
    fanoutCap: Int = 12,
    seed: Int = 7,
)

/** Outcome of one training run (feeds Tables III and IV). */
final case class TrainResult(
    method: String,
    accuracy: Double,
    trainSeconds: Double,
    inferSeconds: Double,
    params: Long,
    memoryBytes: Long,
    trainExamples: Long,
    graphNodes: Long,
    graphEdges: Long,
    graphRels: Long,
)

/** HGNN trainer variants over a (sub)graph. All share the decoupled design
  * (Spark message passing → Breeze softmax head, DESIGN.md §5.5); they
  * differ in *what* gets aggregated, mirroring each method's sampling:
  *
  *  - ``RGCN``        — full-batch aggregation over the whole graph
  *  - ``SeHGNN``      — full aggregation precomputed once (its stated
  *                      optimisation), mini-batch head
  *  - ``GraphSAINT``  — URW-sampled subgraphs per batch, within-batch
  *                      aggregation (types ignored by the sampler)
  *  - ``ShaDowSAINT`` — bounded-fanout (ego-scope) aggregation
  */
object Trainers {

  val methods: Seq[String] = Seq("RGCN", "SeHGNN", "GraphSAINT", "ShaDowSAINT")

  /** Collect (features, labels) of the task's targets from hop tables
    * ``hs`` (``h0 = feats, h1 .. hL``, each ``(id, f*)``), split by fold
    * (0 = train, 1 = valid, 2 = test). Each table gives only target rows;
    * ``h0`` fixes the row set, in id order, and a target with no row in a
    * hop table (no neighbours) keeps zeros there. The fold is a collected
    * column, not a filter literal, so every call runs the same code.
    */
  private def collectXY(hs: Seq[DataFrame], g: KG, task: NCTask): Map[Int, (DenseMatrix[Double], Array[Int])] = {
    val (label, foldOf) = Tasks.labelAndFold(g.schema, task)
    val targets = g.schema.nodeType(task.targetType).contains(col("id"))
    val fs = hs.head.columns.filter(_ != "id").map(col).toSeq
    val base = hs.head.filter(targets).select((col("id") +: fs :+ label :+ foldOf): _*).collect().sortBy(_.getLong(0))
    val index = base.iterator.map(_.getLong(0)).zipWithIndex.toMap
    val d = fs.size
    val x = DenseMatrix.zeros[Double](base.length, d * hs.size + 1)
    for ((h, k) <- hs.zipWithIndex) {
      val hk = if (k == 0) base else h.filter(targets).select((col("id") +: fs): _*).collect()
      for (r <- hk) {
        val i = index(r.getLong(0))
        var j = 0
        while (j < d) { x(i, k * d + j) = r.getDouble(j + 1); j += 1 }
      }
    }
    x(::, d * hs.size) := 1.0 // bias
    base.indices.groupBy(i => base(i).getInt(d + 2)).map { case (fold, rows) =>
      val xf = DenseMatrix.zeros[Double](rows.size, x.cols)
      for ((i, r) <- rows.zipWithIndex) xf(r, ::) := x(i, ::)
      fold -> (xf, rows.map(base(_).getInt(d + 1)).toArray)
    }.withDefaultValue((DenseMatrix.zeros[Double](0, x.cols), Array.empty[Int]))
  }

  /** Softmax model: weights plus the train-set feature standardisation
    * (applied identically at inference; the bias column stays untouched).
    */
  private final case class Head(w: DenseMatrix[Double], mu: DenseVector[Double], sd: DenseVector[Double]) {
    /** Standardise a feature matrix in place (bias column excluded). */
    def standardise(x: DenseMatrix[Double]): DenseMatrix[Double] = {
      val out = x.copy
      var i = 0
      while (i < out.rows) {
        var j = 0
        while (j < out.cols - 1) { out(i, j) = (out(i, j) - mu(j)) / sd(j); j += 1 }
        i += 1
      }
      out
    }
  }

  /** Column means/stds over all training batches (bias column excluded). */
  private def fitStandardiser(batches: Seq[(DenseMatrix[Double], Array[Int])], d: Int): (DenseVector[Double], DenseVector[Double]) = {
    val mu = DenseVector.zeros[Double](d - 1)
    val sq = DenseVector.zeros[Double](d - 1)
    var n = 0L
    for ((x, _) <- batches; i <- 0 until x.rows) {
      var j = 0
      while (j < d - 1) { mu(j) += x(i, j); sq(j) += x(i, j) * x(i, j); j += 1 }
      n += 1
    }
    if (n == 0) return (mu, DenseVector.fill(d - 1)(1.0))
    mu :/= n.toDouble
    val sd = DenseVector.tabulate(d - 1) { j =>
      val v = sq(j) / n - mu(j) * mu(j)
      if (v > 1e-12) math.sqrt(v) else 1.0
    }
    (mu, sd)
  }

  /** Multinomial softmax head trained with full-batch gradient steps over
    * the provided example batches (one pass per epoch), on standardised
    * features so the step size is scale-free.
    */
  private def sgdSoftmax(batches: Seq[(DenseMatrix[Double], Array[Int])],
                         k: Int, epochs: Int, lr: Double): Head = {
    val nonEmpty = batches.filter(_._2.nonEmpty)
    if (nonEmpty.isEmpty) {
      // a sampler can produce batches with no labeled targets (exactly the
      // data-insufficiency failure mode of URW): train nothing, predict the
      // first class — accuracy degrades instead of the run aborting
      val d0 = batches.headOption.map(_._1.cols).getOrElse(1)
      return Head(DenseMatrix.zeros[Double](d0, k),
        DenseVector.zeros[Double](math.max(0, d0 - 1)),
        DenseVector.fill(math.max(0, d0 - 1))(1.0))
    }
    val d = nonEmpty.head._1.cols
    val (mu, sd) = fitStandardiser(nonEmpty, d)
    val pre = Head(null, mu, sd)
    val live = nonEmpty.map { case (x, y) => (pre.standardise(x), y) }
    val w = DenseMatrix.zeros[Double](d, k)
    for (e <- 0 until epochs; (x, y) <- live) {
      val n = x.rows
      val logits = x * w // n × k
      // row-wise softmax
      val p = DenseMatrix.zeros[Double](n, k)
      var i = 0
      while (i < n) {
        var mx = Double.MinValue
        var j = 0
        while (j < k) { if (logits(i, j) > mx) mx = logits(i, j); j += 1 }
        var sum = 0.0
        j = 0
        while (j < k) { val v = math.exp(logits(i, j) - mx); p(i, j) = v; sum += v; j += 1 }
        j = 0
        while (j < k) { p(i, j) /= sum; j += 1 }
        p(i, y(i)) -= 1.0
        i += 1
      }
      val grad = (x.t * p) /:/ n.toDouble
      val step = lr / math.sqrt(1.0 + e)
      w :-= grad * step
    }
    Head(w, mu, sd)
  }

  private def accuracyOf(head: Head, xRaw: DenseMatrix[Double], y: Array[Int]): Double = {
    if (y.isEmpty) return 0.0
    val x = head.standardise(xRaw)
    val logits = x * head.w
    var hit = 0
    var i = 0
    while (i < y.length) {
      val row: DenseVector[Double] = logits(i, ::).t
      if (argmax(row) == y(i)) hit += 1
      i += 1
    }
    hit.toDouble / y.length
  }

  /** Train ``method`` for ``task`` on graph ``g`` (FG or a KG').
    *
    * @param evalGraph if set, inference runs over this graph's aggregation
    *                  and test fold instead of ``g``'s — Table III's
    *                  protocol, where models trained on sampled subgraphs
    *                  are scored on the full task test set
    */
  def train(method: String, g: KG, task: NCTask, p: TrainParams = TrainParams(),
            evalGraph: Option[KG] = None): TrainResult = {
    require(methods.contains(method), s"unknown method $method")
    val cap = if (method == "ShaDowSAINT") Some(p.fanoutCap) else None
    // every table this call materialises, released before it returns
    val held = ArrayBuffer.empty[DataFrame]
    def keep(df: DataFrame): DataFrame = { val m = df.localCheckpoint(); held += m; m }
    def hops(adj: DataFrame, feats: DataFrame): Seq[DataFrame] = {
      val hs = Aggregation.hops(adj, feats, p.l)
      held ++= hs.tail
      hs
    }
    // one adjacency and one feature table, shared by the walks, the batches
    // and inference (lazy: built inside the training timer)
    lazy val adj = keep(Aggregation.adjacency(g, cap, p.seed))
    lazy val feats = keep(Features.nodeFeatures(g))
    lazy val full = hops(adj, feats)
    lazy val fullXY = collectXY(full, g, task)

    // --- gather training batches (Spark message passing) -------------------
    val (trainBatches, prepSecs) = timed {
      method match {
        case "GraphSAINT" =>
          val ids = g.nodeTypes.select("id")
          (0 until p.batches).map { b =>
            val seed = p.seed * 100 + b
            val vs = RandomWalk.visited(adj, RandomWalk.sampleIds(ids, p.rootsPerBatch, seed), p.walkLen, seed)
            // broadcast: at most rootsPerBatch · (walkLen + 1) rows
            def inBatch(c: String) = broadcast(vs.withColumnRenamed("id", c))
            // the batch's induced subgraph: edges with both ends visited
            val batchAdj = keep(adj.join(inBatch("u"), Seq("u"), "leftsemi").join(inBatch("v"), Seq("v"), "leftsemi")
              .select(adj.columns.map(col).toSeq: _*))
            collectXY(hops(batchAdj, keep(feats.join(inBatch("id"), Seq("id"), "leftsemi"))), g, task)(0)
          }
        case _ => // RGCN, SeHGNN, ShaDowSAINT: full (ShaDow: fanout-capped) aggregation
          Seq(fullXY(0))
      }
    }

    val (head, sgdSecs) = timed(sgdSoftmax(trainBatches, task.numLabels, p.epochs, p.lr))

    // --- inference: full-graph aggregation + test prediction ---------------
    val ((testX, testY), inferSecs) = timed {
      evalGraph match {
        case Some(e) =>
          collectXY(hops(keep(Aggregation.adjacency(e, cap, p.seed)), keep(Features.nodeFeatures(e))), e, task)(2)
        case None => fullXY(2)
      }
    }
    val acc = accuracyOf(head, testX, testY)

    val st = g.stats
    val (n, m, r) = (st.nodes, st.edges, st.eTypes)
    val batchNodes = (p.rootsPerBatch.toLong * (p.walkLen + 1)).min(n)
    held.foreach(release)

    TrainResult(
      method = method,
      accuracy = acc,
      trainSeconds = prepSecs + sgdSecs,
      inferSeconds = inferSecs,
      params = MemoryModel.params(n, r, task.numLabels.toLong, p.l),
      memoryBytes = MemoryModel.trainingBytes(method, n, m, r, task.numLabels.toLong, p.l, batchNodes),
      trainExamples = trainBatches.map(_._2.length.toLong).sum,
      graphNodes = n,
      graphEdges = m,
      graphRels = r,
    )
  }
}
