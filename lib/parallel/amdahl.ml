(* Amdahl's-law bounds (paper Sec. 4.2 closing paragraph).

   The paper: "Considering Amdahl's law, the upper bound for speedup is
   greater than 3x for 5 of the 12 applications when only counting easy
   to parallelize loops." Given the fraction of an application's
   running time spent in easily-parallelizable loops, these helpers
   compute the bound for worker counts and the asymptote. *)

let speedup ~parallel_fraction ~workers =
  let p = Float.max 0. (Float.min 1. parallel_fraction) in
  if workers <= 0 then
    if p >= 1. then Float.infinity else 1. /. (1. -. p)
  else 1. /. ((1. -. p) +. (p /. float_of_int workers))

let asymptote ~parallel_fraction = speedup ~parallel_fraction ~workers:0

(* Minimum parallel fraction needed to reach a target speedup with
   unlimited workers: p >= 1 - 1/s. *)
let fraction_for ~target_speedup =
  if target_speedup <= 1. then 0. else 1. -. (1. /. target_speedup)

(* Karp–Flatt experimentally-determined serial fraction: inverts
   Amdahl's law on a *measured* speedup, e = (1/s - 1/n) / (1 - 1/n).
   A fraction that grows with n exposes scheduling overhead the
   asymptotic bound hides; the speedup bench reports it next to the
   raw ratios. *)
let karp_flatt ~measured_speedup ~workers =
  if workers <= 1 || measured_speedup <= 0. then 1.
  else
    let s = measured_speedup and n = float_of_int workers in
    ((1. /. s) -. (1. /. n)) /. (1. -. (1. /. n))
