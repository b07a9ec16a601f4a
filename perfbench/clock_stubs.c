/* Clocks and the host-speed reference kernel of the benchmark.

   perfbench_now_ns: a monotonic nanosecond clock for the spans; the
   stdlib only offers Unix.gettimeofday, whose microsecond resolution is
   coarser than one simulator step.

   perfbench_ref_kernel: a fixed amount of work that shares no code or
   data with the simulator.  The benchmark times it beside every slice
   of the measured window, so the slice's wall time can be rescaled to a
   reference host speed (see run.py).  The work is a chain of dependent
   floating-point adds (core speed) followed by read-modify-writes at
   random places in a 32 MB table (memory speed; the table is larger
   than the caches, so what the simulator left in them barely matters).
   On a shared host, this mix tracked the simulator's own slowdowns
   better than a pointer chase, an integer or branch loop, or either
   part alone (see perfbench/README.md).  The table lives outside the
   OCaml heap, so the GC never sees it. */
#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <stdlib.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}

#define REF_ENTRIES (1u << 22)
#define REF_ADDS 1500000
#define REF_STORES 300000

static uint64_t *ref_table;
static uint64_t ref_state = 7;

value perfbench_ref_init(value unit)
{
  uint32_t i;
  (void)unit;
  if (ref_table != NULL) return Val_unit;
  ref_table = malloc(sizeof(uint64_t) * REF_ENTRIES);
  if (ref_table == NULL) caml_failwith("perfbench_ref_init: out of memory");
  for (i = 0; i < REF_ENTRIES; i++) ref_table[i] = i;
  return Val_unit;
}

/* One unit of reference work; returns its wall time in ns. */
intnat perfbench_ref_kernel(value unit)
{
  volatile double sink;
  double x = 0.0;
  uint64_t s = ref_state;
  intnat a, k;
  (void)unit;
  a = perfbench_now_ns(Val_unit);
  for (k = 0; k < REF_ADDS; k++) x += (double)(k ^ 3) * 0.5;
  for (k = 0; k < REF_STORES; k++) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    ref_table[(s >> 40) & (REF_ENTRIES - 1)] += (uint64_t)k;
  }
  sink = x;
  (void)sink;
  ref_state = s;
  return perfbench_now_ns(Val_unit) - a;
}

value perfbench_ref_kernel_byte(value unit)
{
  return Val_long(perfbench_ref_kernel(unit));
}
