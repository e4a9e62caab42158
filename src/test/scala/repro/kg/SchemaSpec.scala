package repro.kg

import org.scalatest.funsuite.AnyFunSuite

import repro.synth.KGBench

class SchemaSpec extends AnyFunSuite {

  private val schema = KGBench.schemaFor(KGBench.MAG, 0.1)

  test("node type ranges are contiguous and non-overlapping") {
    val sorted = schema.nodeTypes.sortBy(_.offset)
    assert(sorted.head.offset == 0L)
    sorted.sliding(2).foreach {
      case Seq(a, b) => assert(a.offset + a.count == b.offset)
      case _         => ()
    }
    assert(sorted.last.offset + sorted.last.count == schema.totalNodes)
  }

  test("contains respects range bounds") {
    val t = schema.nodeType("Paper")
    assert(t.contains(t.offset))
    assert(t.contains(t.offset + t.count - 1))
    assert(!t.contains(t.offset + t.count))
    assert(!t.contains(t.offset - 1))
  }

  test("typeOfNode inverts the range allocation") {
    for (t <- schema.nodeTypes) {
      assert(schema.typeOfNode(t.offset) == t.id)
      assert(schema.typeOfNode(t.offset + t.count - 1) == t.id)
    }
  }

  test("typeOfNode rejects out-of-range ids") {
    intercept[IllegalArgumentException](schema.typeOfNode(schema.totalNodes))
    intercept[IllegalArgumentException](schema.typeOfNode(-1L))
  }

  test("communityOf stripes within the type range") {
    val t = schema.nodeType("Paper")
    val c = schema.communities
    assert(schema.communityOf(t.offset) == 0)
    assert(schema.communityOf(t.offset + 1) == 1)
    assert(schema.communityOf(t.offset + c) == 0)
  }

  test("every contiguous slice of a type range sees every community") {
    val t = schema.nodeType("Paper")
    val c = schema.communities
    val slice = (t.offset until t.offset + 2L * c).map(schema.communityOf).toSet
    assert(slice == (0 until c).toSet)
  }

  test("name lookups resolve and reject unknowns") {
    assert(schema.nodeType("Author").name == "Author")
    assert(schema.edgeType("cites").name == "cites")
    intercept[NoSuchElementException](schema.nodeType("Nope"))
    intercept[NoSuchElementException](schema.edgeType("nope"))
  }

  test("edge types declare valid endpoint types") {
    for (e <- schema.edgeTypes) {
      assert(e.srcType >= 0 && e.srcType < schema.nodeTypes.size)
      assert(e.dstType >= 0 && e.dstType < schema.nodeTypes.size)
    }
  }

  test("all five benchmark schemas have the paper's type counts") {
    val expected = Map(
      "MAG-42M" -> (58, 62), "YAGO-30M" -> (104, 98), "DBLP-15M" -> (42, 48),
      "ogbl-wikikg2" -> (125, 60), "YAGO3-10" -> (23, 37),
    )
    for (spec <- KGBench.all) {
      val s = KGBench.schemaFor(spec, 1.0)
      val (nt, et) = expected(spec.name)
      assert(s.nodeTypes.size == nt, s"${spec.name} node types")
      assert(s.edgeTypes.size == et, s"${spec.name} edge types")
    }
  }

  test("schema totals scale linearly-ish with the scale factor") {
    val s1 = KGBench.schemaFor(KGBench.MAG, 1.0)
    val s01 = KGBench.schemaFor(KGBench.MAG, 0.1)
    assert(s01.totalNodes < s1.totalNodes / 5)
    assert(s01.totalNodes > s1.totalNodes / 20)
  }

  test("schema rejects zero communities") {
    intercept[IllegalArgumentException](
      KGSchema("x", Vector(NodeTypeInfo(0, "A", 0, 10)), Vector.empty, 0))
  }
}
