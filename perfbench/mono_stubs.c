/* Monotonic clock for the benchmark's tracer: nanoseconds as an unboxed
   double, so a reading neither allocates nor enters the OCaml runtime. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return caml_copy_double(perfbench_now_ns(unit));
}
