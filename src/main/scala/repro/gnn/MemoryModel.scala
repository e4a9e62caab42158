package repro.gnn

/** Analytic training-memory model (DESIGN.md §5.6).
  *
  * JVM RSS at repo scale is dominated by Spark constants, so the benches
  * report memory from this documented model instead. Its terms are the ones
  * the paper cites as complexity drivers (KG size, density, |R|, |C|), so
  * FG/KG' *ratios* — the reproduced claim — carry over.
  *
  * All byte counts assume the paper-scale hidden width ``F`` = 128 and
  * fp64 tensors (8 bytes), Adam-style optimiser state ×2.
  */
object MemoryModel {

  /** Hidden/embedding width used for model accounting (papers' default). */
  val F: Long = 128

  /** RGCN-family parameter count: an input embedding table (n·F), L
    * relation-specific weight matrices (L·r·F²), and a classifier head
    * (F·labels). Matches the magnitude of Table IV's "#Params" column
    * (e.g. PV/MAG FG ≈ 5.3e9 at n = 42M, r = 62).
    */
  def params(n: Long, r: Long, labels: Long, l: Int): Long =
    n * F + l.toLong * r * F * F + F * labels

  /** Training-resident bytes on a graph of ``n`` nodes, ``m`` edges,
    * ``r`` relations, with ``batchNodes`` nodes in flight per batch:
    *  - graph storage: 16·m (COO endpoints) + 8·n (ids/types)
    *  - activations: 8·B·F·(L+1), where B = min(n, batchNodes)
    *  - model + optimiser: 3 × 8·params
    *  - sampler working set: 8·n
    */
  def trainingBytes(n: Long, m: Long, r: Long, labels: Long, l: Int, batchNodes: Long): Long = {
    val graph = 16L * m + 8L * n
    val activations = 8L * math.min(n, batchNodes) * F * (l + 1)
    val model = 24L * params(n, r, labels, l)
    val sampler = 8L * n
    graph + activations + model + sampler
  }

  /** GB rendering helper for the benches. */
  def gb(bytes: Long): Double = bytes.toDouble / (1L << 30)
}
