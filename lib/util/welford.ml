(* All fields are floats, so the record is stored flat and [add]
   boxes nothing; [n] counts exactly below 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0.; sum = 0. }

let add t x =
  t.n <- t.n +. 1.;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  let delta2 = x -. t.mean in
  t.m2 <- t.m2 +. (delta *. delta2)

let count t = int_of_float t.n
let total t = t.sum
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)
