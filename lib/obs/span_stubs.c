/* The span clock: CLOCK_MONOTONIC in nanoseconds, returned untagged so
   the OCaml side ([Span.now_ns], declared [@@noalloc]) reads it with no
   allocation and no runtime bookkeeping. */

#include <time.h>
#include <caml/mlvalues.h>

intnat sanids_obs_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value sanids_obs_now_ns_byte(value unit)
{
  return Val_long(sanids_obs_now_ns(unit));
}
