package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * the benchmark reads span counters only after every event is delivered.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
