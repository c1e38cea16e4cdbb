let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
         let d = x -. m in
         acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty input";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let jaccard a b =
  let inter = ref 0 and union = ref 0 in
  Hashtbl.iter
    (fun k () ->
       incr union;
       if Hashtbl.mem b k then incr inter)
    a;
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem a k) then incr union) b;
  if !union = 0 then 1. else float_of_int !inter /. float_of_int !union

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let pct num den = 100. *. ratio num den
