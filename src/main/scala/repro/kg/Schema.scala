package repro.kg

import org.apache.spark.sql.Column

/** Descriptor of one node type (class). Nodes of this type occupy the
  * contiguous id range ``[offset, offset + count)``; contiguity makes
  * community assignment and split logic pure arithmetic, and makes type
  * membership a range test — the only meaning of ``?x a <type:T>``.
  */
final case class NodeTypeInfo(id: Int, name: String, offset: Long, count: Long) {
  /** Whether a node id belongs to this type's range. */
  def contains(node: Long): Boolean = node >= offset && node < offset + count

  /** Spark-side [[contains]]: whether the node-id column ``node`` lies in
    * this type's range.
    */
  def contains(node: Column): Column = node >= offset && node < offset + count
}

/** Descriptor of one edge type (RDF predicate) with its declared
  * source/destination node types.
  */
final case class EdgeTypeInfo(id: Int, name: String, srcType: Int, dstType: Int)

/** Static schema of a synthetic KG: node-type ranges, edge types, and the
  * number of planted latent communities that drive task labels.
  *
  * A node type is an id range, not a node: SPARQL patterns like
  * ``?t a <type:Paper>`` compile to the range test
  * [[NodeTypeInfo.contains]] on ``?t``.
  */
final case class KGSchema(
    name: String,
    nodeTypes: IndexedSeq[NodeTypeInfo],
    edgeTypes: IndexedSeq[EdgeTypeInfo],
    communities: Int,
) {
  require(nodeTypes.nonEmpty, "schema needs at least one node type")
  require(communities > 0, "communities must be positive")

  /** Total number of entity nodes. */
  val totalNodes: Long = nodeTypes.map(_.count).sum

  private val nodeByName = nodeTypes.map(t => t.name -> t).toMap
  private val edgeByName = edgeTypes.map(t => t.name -> t).toMap

  /** Node-type descriptor by name; throws if unknown. */
  def nodeType(name: String): NodeTypeInfo =
    nodeByName.getOrElse(name, throw new NoSuchElementException(s"node type $name not in KG ${this.name}"))

  /** Edge-type descriptor by name; throws if unknown. */
  def edgeType(name: String): EdgeTypeInfo =
    edgeByName.getOrElse(name, throw new NoSuchElementException(s"edge type $name not in KG ${this.name}"))

  /** Node-type id owning entity node ``id`` (driver-side range lookup). */
  def typeOfNode(id: Long): Int = {
    val i = nodeTypes.indexWhere(_.contains(id))
    require(i >= 0, s"node $id outside all type ranges of KG $name")
    i
  }

  /** Latent community of an entity node: round-robin stripes within the
    * type range (``(id - offset) % communities``). Striping keeps every
    * community present in every contiguous id slice, so time-surrogate
    * splits (which cut the range by position) stay label-balanced.
    * Community drives both edge affinity in the generator and task labels.
    */
  def communityOf(id: Long): Int = {
    val t = nodeTypes(typeOfNode(id))
    ((id - t.offset) % communities).toInt
  }
}
