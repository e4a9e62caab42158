package org.apache.spark.sql

/** The number of tables in a session's cache manager; the count is visible
  * only inside Spark's sql package.
  */
object CachedTables {
  def count(spark: SparkSession): Int = spark.sharedState.cacheManager.numCachedEntries
}
