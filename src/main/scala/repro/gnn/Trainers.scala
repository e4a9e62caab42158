package repro.gnn

import breeze.linalg.{argmax, DenseMatrix, DenseVector}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD

import repro.kg.{KG, KGStats, NodeTypeInfo}
import repro.sampling.RandomWalk
import repro.synth.{NCTask, Tasks}
import repro.timed

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

/** Outcome of one training run (feeds Tables III and IV).
  *
  * @param headLoss mean training cross-entropy of the softmax head's last
  *                 epoch (NaN when no batch holds a labelled target)
  */
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
    headLoss: Double,
)

/** HGNN trainer variants over a (sub)graph. All share the decoupled design
  * (Spark message passing → Breeze softmax head, DESIGN.md §5.5); they
  * differ in *what* gets aggregated, mirroring each method's sampling:
  *
  *  - ``SeHGNN``      — relation-blind full aggregation precomputed once
  *                      (its stated optimisation), mini-batch head
  *  - ``GraphSAINT``  — URW-sampled subgraphs per batch, within-batch
  *                      aggregation (types ignored by the sampler)
  *  - ``ShaDowSAINT`` — bounded-fanout (ego-scope) aggregation
  */
object Trainers {

  val methods: Seq[String] = Seq("SeHGNN", "GraphSAINT", "ShaDowSAINT")

  /** The task's targets in ``g``, in id order, with their ``h0`` rows,
    * labels and folds (0 = train, 1 = valid, 2 = test). One RDD job reads
    * the targets' ids and types, with ``g``'s [[KGStats]] from the same pass
    * ([[KG.statsAndNodes]]); ``h0`` ([[Features.row]]), label and fold
    * ([[Tasks.labelAndFold]]) are functions of the id, computed on the
    * driver.
    */
  private final case class Targets(kind: NodeTypeInfo, dim: Int, ids: Array[Long], h0: Array[Array[Double]],
                                   label: Array[Int], fold: Array[Int])

  private def targetsOf(g: KG, task: NCTask): (Targets, KGStats) = {
    val kind = g.schema.nodeType(task.targetType)
    val (st, nodes) = g.statsAndNodes(kind)
    val (feature, draw) = (Features.row(g.schema), Tasks.labelAndFold(g.schema, task))
    val (label, fold) = nodes.map { case (id, _) => draw(id) }.unzip
    (Targets(kind, Features.dim(g), nodes.map(_._1), nodes.map { case (id, t) => feature(id, t) }, label, fold), st)
  }

  /** (features, labels) of the targets ``t`` whose id passes ``in``, split by
    * fold: ``h0`` from ``t``, then the rows of hops ``hs.tail`` (``h1 .. hL``)
    * for those targets, collected in one job. A target with no row in a hop
    * (no neighbours) keeps zeros there.
    */
  private def collectXY(t: Targets, hs: Seq[Aggregation.Vectors],
                        in: Long => Boolean): Map[Int, (DenseMatrix[Double], Array[Int])] = {
    val kind = t.kind // the task closure takes the type range, not t's arrays
    val rows = t.ids.indices.filter(i => in(t.ids(i)))
    val index = rows.iterator.map(t.ids).zipWithIndex.toMap
    val d = t.dim
    val x = DenseMatrix.zeros[Double](rows.size, d * hs.size + 1)
    def put(i: Int, k: Int, row: Array[Double]): Unit = {
      var j = 0
      while (j < d) { x(i, k * d + j) = row(j); j += 1 }
    }
    for ((r, i) <- rows.zipWithIndex) put(i, 0, t.h0(r))
    val hopRows = hs.tail.zipWithIndex.map { case (h, k) =>
      h.filter { case (id, _) => kind.contains(id) && in(id) }.map { case (id, row) => (k + 1, id, row) }
    }
    if (hopRows.nonEmpty)
      for ((k, id, row) <- hopRows.reduce(_ union _).collect()) put(index(id), k, row)
    x(::, d * hs.size) := 1.0 // bias
    rows.indices.groupBy(i => t.fold(rows(i))).map { case (fold, rs) =>
      val xf = DenseMatrix.zeros[Double](rs.size, x.cols)
      for ((i, r) <- rs.zipWithIndex) xf(r, ::) := x(i, ::)
      fold -> (xf, rs.map(i => t.label(rows(i))).toArray)
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
    * features so the step size is scale-free. Also returns the mean
    * cross-entropy over the last epoch's examples, from the probabilities
    * that epoch computes for its gradient.
    */
  private def sgdSoftmax(batches: Seq[(DenseMatrix[Double], Array[Int])],
                         k: Int, epochs: Int, lr: Double): (Head, Double) = {
    val nonEmpty = batches.filter(_._2.nonEmpty)
    if (nonEmpty.isEmpty) {
      // a sampler can produce batches with no labeled targets (exactly the
      // data-insufficiency failure mode of URW): train nothing, predict the
      // first class — accuracy degrades instead of the run aborting
      val d0 = batches.headOption.map(_._1.cols).getOrElse(1)
      return (Head(DenseMatrix.zeros[Double](d0, k),
        DenseVector.zeros[Double](math.max(0, d0 - 1)),
        DenseVector.fill(math.max(0, d0 - 1))(1.0)), Double.NaN)
    }
    val d = nonEmpty.head._1.cols
    val (mu, sd) = fitStandardiser(nonEmpty, d)
    val pre = Head(null, mu, sd)
    val live = nonEmpty.map { case (x, y) => (pre.standardise(x), y) }
    val w = DenseMatrix.zeros[Double](d, k)
    var loss = 0.0
    var seen = 0L
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
        if (e == epochs - 1) { loss -= math.log(p(i, y(i))); seen += 1 }
        p(i, y(i)) -= 1.0
        i += 1
      }
      val grad = (x.t * p) /:/ n.toDouble
      val step = lr / math.sqrt(1.0 + e)
      w :-= grad * step
    }
    (Head(w, mu, sd), loss / seen)
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
    * The call holds the undirected adjacency and the node features as RDDs
    * under one hash partitioner (``defaultParallelism`` partitions), shared by
    * the walks, the GraphSAINT batches and inference, and frees them before it
    * returns or throws.
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
    val part = new HashPartitioner(g.triples.sparkSession.sparkContext.defaultParallelism)
    val all: Long => Boolean = _ => true
    // every RDD this call persists, freed before it returns or throws
    val held = ArrayBuffer.empty[RDD[_]]
    def keep[T](rdd: RDD[T]): RDD[T] = { held += rdd; rdd.persist() }
    try {
      // one adjacency and one feature table, shared by the walks, the batches
      // and inference (lazy: built inside the training timer)
      lazy val adj = keep(Aggregation.adjacency(g, part, cap, p.seed))
      lazy val feats = keep(Features.vectors(g, part))
      lazy val (targets, st) = targetsOf(g, task)
      lazy val fullXY = collectXY(targets, Aggregation.hops(adj, feats, p.l), all)

      // --- gather training batches (Spark message passing) -----------------
      val (trainBatches, prepSecs) = timed {
        method match {
          case "GraphSAINT" =>
            (0 until p.batches).map { b =>
              val seed = p.seed * 100 + b
              val vs = RandomWalk.visited(adj, RandomWalk.sampleIds(feats.keys, p.rootsPerBatch, seed), p.walkLen, seed)
              val in: Long => Boolean = id => java.util.Arrays.binarySearch(vs, id) >= 0
              // the batch's induced subgraph: edges with both ends visited; a
              // filter keeps the partitioner, so its hops shuffle as the full ones
              val hs = Aggregation.hops(adj.filter { case (v, u) => in(v) && in(u) }, feats.filter(r => in(r._1)), p.l)
              collectXY(targets, hs, in)(0)
            }
          case _ => // SeHGNN, ShaDowSAINT: full (ShaDow: fanout-capped) aggregation
            Seq(fullXY(0))
        }
      }

      val ((head, headLoss), sgdSecs) = timed(sgdSoftmax(trainBatches, task.numLabels, p.epochs, p.lr))

      // --- inference: full-graph aggregation + test prediction -------------
      val ((testX, testY), inferSecs) = timed {
        evalGraph match {
          case Some(e) =>
            val hs = Aggregation.hops(Aggregation.adjacency(e, part, cap, p.seed), Features.vectors(e, part), p.l)
            collectXY(targetsOf(e, task)._1, hs, all)(2)
          case None => fullXY(2)
        }
      }
      val acc = accuracyOf(head, testX, testY)

      val (n, m, r) = (st.nodes, st.edges, st.eTypes)
      val batchNodes = (p.rootsPerBatch.toLong * (p.walkLen + 1)).min(n)

      TrainResult(
        method = method,
        accuracy = acc,
        trainSeconds = prepSecs + sgdSecs,
        inferSeconds = inferSecs,
        params = MemoryModel.params(n, r, task.numLabels.toLong, p.l),
        memoryBytes = MemoryModel.trainingBytes(n, m, r, task.numLabels.toLong, p.l, batchNodes),
        trainExamples = trainBatches.map(_._2.length.toLong).sum,
        graphNodes = n,
        graphEdges = m,
        graphRels = r,
        headLoss = headLoss,
      )
    } finally held.foreach(_.unpersist(blocking = false))
  }
}
