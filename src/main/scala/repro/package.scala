package object repro {

  /** Run ``body``; return its result and its wall-clock seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}
