/* CPU affinity, which the Unix library lacks: the benchmark keeps the
   load generator and the CLI on separate cores. */

#define _GNU_SOURCE
#include <sched.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* perfbench_allowed_cpus () -> the CPUs this process may run on. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* perfbench_pin pid cpu -> whether thread [pid] (0: the caller) now runs
   on [cpu] only. Threads it creates later inherit the mask. */
value perfbench_pin(value vpid, value vcpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(vcpu), &set);
  return Val_bool(sched_setaffinity(Int_val(vpid), sizeof set, &set) == 0);
}
