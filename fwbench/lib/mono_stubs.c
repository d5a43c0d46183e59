/* Monotonic nanosecond clock for the benchmark's timers.  The program's
   own Fw_obs.Clock reads the wall clock at microsecond resolution, which
   is too coarse for loopback round trips of a few tens of microseconds
   and can step backwards. */

#include <time.h>
#include <caml/mlvalues.h>

value fwbench_mono_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
