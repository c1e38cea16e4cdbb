type t = {
  rate : int;
  mutable busy_ticks : int;
  mutable idle_ticks : int;
}

let create ?(ticks_per_ms = 100_000) () =
  if ticks_per_ms <= 0 then invalid_arg "Vclock.create: rate must be positive";
  { rate = ticks_per_ms; busy_ticks = 0; idle_ticks = 0 }

let ticks_per_ms t = t.rate
let now t = Int64.of_int (t.busy_ticks + t.idle_ticks)
let busy t = Int64.of_int t.busy_ticks
let idle t = Int64.of_int t.idle_ticks

let advance t cost =
  if cost < 0 then invalid_arg "Vclock.advance: negative cost";
  t.busy_ticks <- t.busy_ticks + cost

let advance_idle t ticks =
  if Int64.compare ticks 0L < 0 then
    invalid_arg "Vclock.advance_idle: negative ticks";
  t.idle_ticks <- t.idle_ticks + Int64.to_int ticks

let to_ms t ticks = Int64.to_float ticks /. float_of_int t.rate
let ms_to_ticks t ms = Int64.of_float (ms *. float_of_int t.rate)

let copy t =
  { rate = t.rate; busy_ticks = t.busy_ticks; idle_ticks = t.idle_ticks }
