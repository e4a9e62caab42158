package repro.rdf

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean

/** Property tests of Algorithm 3's page plan: pages cut a sorted result
  * held in partitions into consecutive windows of ``bs`` rows.
  */
object PagePlanProps extends Properties("PagePlan") {

  /** Page sizes from tiny to past the result; the page count stays small. */
  private def genBs(total: Long): Gen[Long] =
    Gen.chooseNum(1L, 300L).flatMap(k => Gen.oneOf(
      math.max(1L, total / k), total / k + 1, math.max(1L, total), total + 1, Long.MaxValue))

  private val genSmall: Gen[List[Long]] = Gen.listOf(Gen.chooseNum(0L, 60L))

  /** Results of more than 2³¹ rows. */
  private val genLarge: Gen[List[Long]] = for {
    big <- Gen.chooseNum((1L << 31) + 1, 1L << 36)
    rest <- Gen.listOf(Gen.chooseNum(0L, 1L << 33))
    at <- Gen.chooseNum(0, rest.size)
  } yield rest.patch(at, Seq(big), 0)

  /** Slices are non-empty, within their partition and, read page by page,
    * cover rows [0, total) in order; every page but the last holds ``bs``
    * rows; the batch count is max(1, ⌈total / bs⌉).
    */
  private def plans(genSizes: Gen[List[Long]]): Prop =
    Prop.forAll(genSizes.flatMap(s => genBs(s.sum).map(s -> _))) { case (sizes, bs) =>
      val plan = Endpoint.pagePlan(sizes, bs)
      val total = sizes.sum
      val starts = sizes.scanLeft(0L)(_ + _)
      val ranges = plan.flatten.map(s => (starts(s.part) + s.from, starts(s.part) + s.until))
      val inBounds = plan.flatten.forall(s => 0 <= s.from && s.from < s.until && s.until <= sizes(s.part))
      val ordered = plan.forall(p => p.map(_.part) == p.map(_.part).sorted.distinct)
      val ends = ranges.map(_._2)
      val covers = if (ranges.isEmpty) total == 0 else ranges.map(_._1) == 0L +: ends.init && ends.last == total
      val rows = plan.map(_.map(s => s.until - s.from).sum)
      val full = rows.init.forall(_ == bs) && rows.last == total - (plan.size - 1) * bs
      val batches = plan.size == (BigInt(1) max (BigInt(total) + bs - 1) / bs)
      (inBounds :| "slices within partitions") && (ordered :| "partitions in order") &&
        (covers :| "slices cover [0, total) in order") && (full :| "every page but the last is full") &&
        (batches :| "batch count")
    }

  property("pages cover a small result in order") = plans(genSmall)

  property("pages cover a result past 2^31 rows in order") = plans(genLarge)
}
