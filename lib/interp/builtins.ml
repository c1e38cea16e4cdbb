(* Global environment: Math, Array/String/Object/Function prototypes,
   console, timers and the high-resolution timer the paper's
   instrumentation uses ([performance.now], reference [4] in the
   paper). Everything is a host function over {!Value.state}; none of
   it allocates outside the interpreter heap, so instrumented and
   uninstrumented runs see the same object graph. *)

open Value

let arg n args = match List.nth_opt args n with Some v -> v | None -> Undefined
let num_arg st n args = to_number st (arg n args)
let str_arg st n args = to_string st (arg n args)

let int_arg st n args =
  let f = num_arg st n args in
  if Float.is_nan f then 0 else int_of_float f

let define obj name v = raw_set_prop obj name v

let define_fn st obj name fn = define obj name (Obj (make_host_fn st name fn))

let array_of st v =
  match v with
  | Obj ({ arr = Some a; _ } as o) -> (o, a)
  | _ -> type_error st "receiver is not an array"

(* The receiver of a builtin that mutates it: a chunk may not grow,
   shrink or reorder an array older than itself (the write barrier,
   see [Eval]). *)
let mutated_array st name v =
  let o, a = array_of st v in
  if o.oid < st.write_floor then master_write (name ^ " on a master array");
  (o, a)

(* Call back into JS through the evaluator. *)
let invoke st fn this args = st.apply st fn this args

(* ------------------------------------------------------------------ *)

let install_math st =
  let math = make_obj st in
  define math "PI" (Num Float.pi);
  define math "E" (Num (Float.exp 1.));
  define math "LN2" (Num (Float.log 2.));
  define math "SQRT2" (Num (Float.sqrt 2.));
  let unary name f =
    define math name (Obj (make_function st (Host_unary (name, f))))
  in
  unary "abs" Float.abs;
  unary "floor" Float.floor;
  unary "ceil" Float.ceil;
  unary "sqrt" Float.sqrt;
  unary "sin" sin;
  unary "cos" cos;
  unary "tan" tan;
  unary "asin" asin;
  unary "acos" acos;
  unary "atan" atan;
  unary "exp" exp;
  unary "log" log;
  unary "round" (fun f -> Float.floor (f +. 0.5));
  unary "trunc" Float.trunc;
  unary "log10" log10;
  unary "sign" (fun f ->
      if Float.is_nan f then Float.nan
      else if f > 0. then 1.
      else if f < 0. then -1.
      else f);
  define_fn st math "atan2" (fun st _ args ->
      Num (Float.atan2 (num_arg st 0 args) (num_arg st 1 args)));
  define_fn st math "pow" (fun st _ args ->
      Num (Float.pow (num_arg st 0 args) (num_arg st 1 args)));
  define_fn st math "min" (fun st _ args ->
      Num
        (List.fold_left
           (fun acc v -> Float.min acc (to_number st v))
           Float.infinity args));
  define_fn st math "max" (fun st _ args ->
      Num
        (List.fold_left
           (fun acc v -> Float.max acc (to_number st v))
           Float.neg_infinity args));
  define_fn st math "random" (fun st _ _ -> Num (Ceres_util.Prng.float st.prng));
  define st.global_obj "Math" (Obj math)

(* ------------------------------------------------------------------ *)

let install_array st =
  let proto = st.array_proto in
  define_fn st proto "push" (fun st this args ->
      let _, a = mutated_array st "push" this in
      List.iter
        (fun v ->
           ensure_capacity a a.len;
           a.elems.(a.len) <- v;
           a.len <- a.len + 1)
        args;
      Num (float_of_int a.len));
  define_fn st proto "pop" (fun st this _ ->
      let _, a = mutated_array st "pop" this in
      if a.len = 0 then Undefined
      else begin
        let v = a.elems.(a.len - 1) in
        a.elems.(a.len - 1) <- Undefined;
        a.len <- a.len - 1;
        v
      end);
  define_fn st proto "shift" (fun st this _ ->
      let _, a = mutated_array st "shift" this in
      if a.len = 0 then Undefined
      else begin
        let v = a.elems.(0) in
        Array.blit a.elems 1 a.elems 0 (a.len - 1);
        a.elems.(a.len - 1) <- Undefined;
        a.len <- a.len - 1;
        v
      end);
  define_fn st proto "unshift" (fun st this args ->
      let _, a = mutated_array st "unshift" this in
      let extra = List.length args in
      ensure_capacity a (a.len + extra - 1);
      Array.blit a.elems 0 a.elems extra a.len;
      List.iteri (fun i v -> a.elems.(i) <- v) args;
      a.len <- a.len + extra;
      Num (float_of_int a.len));
  define_fn st proto "indexOf" (fun st this args ->
      let _, a = array_of st this in
      let needle = arg 0 args in
      let rec go i =
        if i >= a.len then -1
        else if strict_eq a.elems.(i) needle then i
        else go (i + 1)
      in
      Num (float_of_int (go 0)));
  define_fn st proto "lastIndexOf" (fun st this args ->
      let _, a = array_of st this in
      let needle = arg 0 args in
      let rec go i =
        if i < 0 then -1
        else if strict_eq a.elems.(i) needle then i
        else go (i - 1)
      in
      Num (float_of_int (go (a.len - 1))));
  define_fn st proto "join" (fun st this args ->
      let _, a = array_of st this in
      let sep = match arg 0 args with Undefined -> "," | v -> to_string st v in
      let parts =
        List.init a.len (fun i ->
            match a.elems.(i) with
            | Undefined | Null -> ""
            | v -> to_string st v)
      in
      Str (String.concat sep parts));
  define_fn st proto "slice" (fun st this args ->
      let _, a = array_of st this in
      let clamp i = max 0 (min a.len i) in
      let norm i = if i < 0 then clamp (a.len + i) else clamp i in
      let start = match arg 0 args with Undefined -> 0 | v -> norm (int_of_float (to_number st v)) in
      let stop = match arg 1 args with Undefined -> a.len | v -> norm (int_of_float (to_number st v)) in
      let n = max 0 (stop - start) in
      Obj (make_array st (Array.init n (fun i -> a.elems.(start + i)))));
  define_fn st proto "concat" (fun st this args ->
      let _, a = array_of st this in
      let items = ref [] in
      for i = a.len - 1 downto 0 do
        items := a.elems.(i) :: !items
      done;
      let tail =
        List.concat_map
          (fun v ->
             match v with
             | Obj { arr = Some b; _ } ->
               List.init b.len (fun i -> b.elems.(i))
             | v -> [ v ])
          args
      in
      Obj (make_array st (Array.of_list (!items @ tail))));
  define_fn st proto "reverse" (fun st this _ ->
      let o, a = mutated_array st "reverse" this in
      let n = a.len in
      for i = 0 to (n / 2) - 1 do
        let tmp = a.elems.(i) in
        a.elems.(i) <- a.elems.(n - 1 - i);
        a.elems.(n - 1 - i) <- tmp
      done;
      Obj o);
  define_fn st proto "splice" (fun st this args ->
      let _, a = mutated_array st "splice" this in
      let norm i = if i < 0 then max 0 (a.len + i) else min a.len i in
      let start = norm (int_arg st 0 args) in
      let count =
        match arg 1 args with
        | Undefined -> a.len - start
        | v -> max 0 (min (a.len - start) (int_of_float (to_number st v)))
      in
      let removed = Array.init count (fun i -> a.elems.(start + i)) in
      let inserted = match args with _ :: _ :: rest -> rest | _ -> [] in
      let nins = List.length inserted in
      let new_len = a.len - count + nins in
      ensure_capacity a (max a.len new_len);
      (* shift the tail *)
      let tail_len = a.len - (start + count) in
      if nins <> count then
        Array.blit a.elems (start + count) a.elems (start + nins) tail_len;
      List.iteri (fun i v -> a.elems.(start + i) <- v) inserted;
      for i = new_len to a.len - 1 do
        a.elems.(i) <- Undefined
      done;
      a.len <- new_len;
      Obj (make_array st removed));
  define_fn st proto "map" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      let out = Array.make a.len Undefined in
      for i = 0 to a.len - 1 do
        out.(i) <- invoke st fn Undefined
            [ a.elems.(i); Num (float_of_int i); Obj o ]
      done;
      Obj (make_array st out));
  define_fn st proto "forEach" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      for i = 0 to a.len - 1 do
        ignore (invoke st fn Undefined [ a.elems.(i); Num (float_of_int i); Obj o ])
      done;
      Undefined);
  define_fn st proto "filter" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      let out = ref [] in
      for i = a.len - 1 downto 0 do
        if
          to_boolean
            (invoke st fn Undefined [ a.elems.(i); Num (float_of_int i); Obj o ])
        then out := a.elems.(i) :: !out
      done;
      Obj (make_array st (Array.of_list !out)));
  define_fn st proto "reduce" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      let start, acc0 =
        match args with
        | _ :: init :: _ -> 0, init
        | _ ->
          if a.len = 0 then
            type_error st "reduce of empty array with no initial value";
          1, a.elems.(0)
      in
      let acc = ref acc0 in
      for i = start to a.len - 1 do
        acc :=
          invoke st fn Undefined
            [ !acc; a.elems.(i); Num (float_of_int i); Obj o ]
      done;
      !acc);
  define_fn st proto "some" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      let rec go i =
        i < a.len
        && (to_boolean
              (invoke st fn Undefined
                 [ a.elems.(i); Num (float_of_int i); Obj o ])
            || go (i + 1))
      in
      Bool (go 0));
  define_fn st proto "every" (fun st this args ->
      let o, a = array_of st this in
      let fn = arg 0 args in
      let rec go i =
        i >= a.len
        || (to_boolean
              (invoke st fn Undefined
                 [ a.elems.(i); Num (float_of_int i); Obj o ])
            && go (i + 1))
      in
      Bool (go 0));
  define_fn st proto "sort" (fun st this args ->
      let o, a = mutated_array st "sort" this in
      let cmp =
        match arg 0 args with
        | Obj { call = Some _; _ } as fn ->
          fun x y ->
            let r = to_number st (invoke st fn Undefined [ x; y ]) in
            if r < 0. then -1 else if r > 0. then 1 else 0
        | _ ->
          fun x y -> String.compare (to_string st x) (to_string st y)
      in
      let live = Array.sub a.elems 0 a.len in
      Array.sort cmp live;
      Array.blit live 0 a.elems 0 a.len;
      Obj o);
  define_fn st proto "toString" (fun st this _ ->
      match this with
      | Obj o -> Str (default_obj_string st o)
      | v -> Str (to_string st v));
  (* Array constructor *)
  let ctor =
    make_host_fn st "Array" (fun st _ args ->
        match args with
        | [ Num n ] when Float.is_integer n && n >= 0. ->
          Obj (make_array st (Array.make (int_of_float n) Undefined))
        | _ -> Obj (make_array st (Array.of_list args)))
  in
  define ctor "prototype" (Obj proto);
  define_fn st ctor "isArray" (fun _ _ args ->
      match arg 0 args with
      | Obj { arr = Some _; _ } -> Bool true
      | _ -> Bool false);
  define st.global_obj "Array" (Obj ctor)

(* ------------------------------------------------------------------ *)

let install_string st =
  let proto = st.string_proto in
  let receiver st this = to_string st this in
  define_fn st proto "charAt" (fun st this args ->
      let s = receiver st this in
      let i = int_arg st 0 args in
      if i >= 0 && i < String.length s then Str (String.make 1 s.[i])
      else Str "");
  define_fn st proto "charCodeAt" (fun st this args ->
      let s = receiver st this in
      let i = int_arg st 0 args in
      if i >= 0 && i < String.length s then Num (float_of_int (Char.code s.[i]))
      else Num Float.nan);
  define_fn st proto "indexOf" (fun st this args ->
      let s = receiver st this in
      let needle = str_arg st 0 args in
      let nl = String.length needle and sl = String.length s in
      let rec go i =
        if i + nl > sl then -1
        else if String.sub s i nl = needle then i
        else go (i + 1)
      in
      Num (float_of_int (go 0)));
  define_fn st proto "slice" (fun st this args ->
      let s = receiver st this in
      let len = String.length s in
      let norm i = if i < 0 then max 0 (len + i) else min len i in
      let start = match arg 0 args with Undefined -> 0 | v -> norm (int_of_float (to_number st v)) in
      let stop = match arg 1 args with Undefined -> len | v -> norm (int_of_float (to_number st v)) in
      if stop <= start then Str "" else Str (String.sub s start (stop - start)));
  define_fn st proto "substring" (fun st this args ->
      let s = receiver st this in
      let len = String.length s in
      let clamp i = max 0 (min len i) in
      let a = clamp (int_arg st 0 args) in
      let b = match arg 1 args with Undefined -> len | v -> clamp (int_of_float (to_number st v)) in
      let lo = min a b and hi = max a b in
      Str (String.sub s lo (hi - lo)));
  define_fn st proto "toUpperCase" (fun st this _ ->
      Str (String.uppercase_ascii (receiver st this)));
  define_fn st proto "toLowerCase" (fun st this _ ->
      Str (String.lowercase_ascii (receiver st this)));
  define_fn st proto "trim" (fun st this _ -> Str (String.trim (receiver st this)));
  define_fn st proto "split" (fun st this args ->
      let s = receiver st this in
      match arg 0 args with
      | Undefined -> Obj (make_array st [| Str s |])
      | sep_v ->
        let sep = to_string st sep_v in
        let parts =
          if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
          else begin
            let out = ref [] and start = ref 0 in
            let sl = String.length s and nl = String.length sep in
            let i = ref 0 in
            while !i + nl <= sl do
              if String.sub s !i nl = sep then begin
                out := String.sub s !start (!i - !start) :: !out;
                i := !i + nl;
                start := !i
              end
              else incr i
            done;
            out := String.sub s !start (sl - !start) :: !out;
            List.rev !out
          end
        in
        Obj (make_array st (Array.of_list (List.map (fun p -> Str p) parts))));
  define_fn st proto "replace" (fun st this args ->
      (* String-pattern replace (first occurrence), enough for the
         workloads; no regular expressions in MiniJS. *)
      let s = receiver st this in
      let pat = str_arg st 0 args in
      let repl = str_arg st 1 args in
      let sl = String.length s and pl = String.length pat in
      let rec find i =
        if pl = 0 || i + pl > sl then None
        else if String.sub s i pl = pat then Some i
        else find (i + 1)
      in
      (match find 0 with
       | None -> Str s
       | Some i ->
         Str (String.sub s 0 i ^ repl ^ String.sub s (i + pl) (sl - i - pl))));
  define_fn st proto "concat" (fun st this args ->
      let s = receiver st this in
      Str (List.fold_left (fun acc v -> acc ^ to_string st v) s args));
  define_fn st proto "toString" (fun st this _ -> Str (receiver st this));
  let ctor =
    make_host_fn st "String" (fun st _ args ->
        match args with [] -> Str "" | v :: _ -> Str (to_string st v))
  in
  define ctor "prototype" (Obj proto);
  define_fn st ctor "fromCharCode" (fun st _ args ->
      let buf = Buffer.create (List.length args) in
      List.iter
        (fun v -> Buffer.add_char buf (Char.chr (int_of_float (to_number st v) land 255)))
        args;
      Str (Buffer.contents buf));
  define st.global_obj "String" (Obj ctor)

(* ------------------------------------------------------------------ *)

let install_object st =
  let proto = st.object_proto in
  define_fn st proto "toString" (fun st this _ ->
      match this with
      | Obj o -> Str (default_obj_string st o)
      | v -> Str (to_string st v));
  define_fn st proto "hasOwnProperty" (fun st this args ->
      match this with
      | Obj o ->
        let key = str_arg st 0 args in
        (match o.arr, array_index_of_key key with
         | Some a, Some i -> Bool (i < a.len)
         | _ -> Bool (has_own_prop o key))
      | _ -> Bool false);
  let ctor =
    make_host_fn st "Object" (fun st _ args ->
        match args with
        | (Obj _ as v) :: _ -> v
        | _ -> Obj (make_obj st))
  in
  define ctor "prototype" (Obj proto);
  define_fn st ctor "keys" (fun st _ args ->
      match arg 0 args with
      | Obj o ->
        let keys = own_keys o in
        Obj (make_array st (Array.of_list (List.map (fun k -> Str k) keys)))
      | _ -> type_error st "Object.keys called on non-object");
  define_fn st ctor "create" (fun st _ args ->
      let proto =
        match arg 0 args with
        | Obj p -> Some p
        | Null -> None
        | _ -> Some st.object_proto
      in
      Obj (make_obj ~proto st));
  define st.global_obj "Object" (Obj ctor);
  (* Function.prototype.call/apply *)
  define_fn st st.function_proto "call" (fun st this args ->
      let target = match args with [] -> Undefined | v :: _ -> v in
      let rest = match args with [] -> [] | _ :: r -> r in
      invoke st this target rest);
  define_fn st st.function_proto "apply" (fun st this args ->
      let target = arg 0 args in
      let rest =
        match arg 1 args with
        | Obj { arr = Some a; _ } -> List.init a.len (fun i -> a.elems.(i))
        | _ -> []
      in
      invoke st this target rest);
  (* Error prototype with a message-bearing toString. *)
  define_fn st st.error_proto "toString" (fun st this _ ->
      match this with
      | Obj o ->
        let name = to_string st (get_prop_obj o "name") in
        let msg = to_string st (get_prop_obj o "message") in
        Str (name ^ ": " ^ msg)
      | _ -> Str "Error");
  let error_ctor =
    make_host_fn st "Error" (fun st this args ->
        let msg = match args with [] -> "" | v :: _ -> to_string st v in
        match this with
        | Obj o ->
          raw_set_prop o "name" (Str "Error");
          raw_set_prop o "message" (Str msg);
          Undefined
        | _ ->
          let o = make_obj ~proto:(Some st.error_proto) st in
          raw_set_prop o "name" (Str "Error");
          raw_set_prop o "message" (Str msg);
          Obj o)
  in
  define error_ctor "prototype" (Obj st.error_proto);
  define st.global_obj "Error" (Obj error_ctor)

(* ------------------------------------------------------------------ *)

let install_console st =
  let console = make_obj st in
  let log_fn level =
    fun st _ args ->
      let line =
        String.concat " " (List.map (fun v -> to_string st v) args)
      in
      let line = if level = "" then line else level ^ ": " ^ line in
      st.console <- line :: st.console;
      if st.echo_console then print_endline line;
      Undefined
  in
  define_fn st console "log" (log_fn "");
  define_fn st console "warn" (log_fn "warn");
  define_fn st console "error" (log_fn "error");
  define st.global_obj "console" (Obj console)

let install_timers st =
  let schedule st callback delay_ms =
    let due =
      Int64.add
        (Ceres_util.Vclock.now st.clock)
        (Ceres_util.Vclock.ms_to_ticks st.clock delay_ms)
    in
    let seq = st.next_event_seq in
    st.next_event_seq <- seq + 1;
    st.events <- { due; seq; callback; args = [] } :: st.events;
    seq
  in
  define_fn st st.global_obj "setTimeout" (fun st _ args ->
      let callback = arg 0 args in
      let delay = match arg 1 args with Undefined -> 0. | v -> to_number st v in
      Num (float_of_int (schedule st callback delay)));
  define_fn st st.global_obj "requestAnimationFrame" (fun st _ args ->
      let callback = arg 0 args in
      (* 60 fps frame cadence *)
      Num (float_of_int (schedule st callback (1000. /. 60.))));
  define_fn st st.global_obj "clearTimeout" (fun st _ args ->
      let id = int_arg st 0 args in
      st.events <- List.filter (fun ev -> ev.seq <> id) st.events;
      Undefined);
  (* Timers the paper's tool uses: Date.now (ms) and the W3C
     high-resolution timer performance.now (fractional ms). *)
  let date = make_obj st in
  define_fn st date "now" (fun st _ _ ->
      st.host_time_reads <- st.host_time_reads + 1;
      Num (Ceres_util.Vclock.to_ms st.clock (Ceres_util.Vclock.now st.clock)));
  define st.global_obj "Date" (Obj date);
  let perf = make_obj st in
  define_fn st perf "now" (fun st _ _ ->
      st.host_time_reads <- st.host_time_reads + 1;
      Num (Ceres_util.Vclock.to_ms st.clock (Ceres_util.Vclock.now st.clock)));
  define st.global_obj "performance" (Obj perf)

let install_globals st =
  define_fn st st.global_obj "parseInt" (fun st _ args ->
      let s = String.trim (str_arg st 0 args) in
      let radix = match arg 1 args with Undefined -> 10 | v -> int_of_float (to_number st v) in
      let s, sign =
        if String.length s > 0 && s.[0] = '-' then
          String.sub s 1 (String.length s - 1), -1.
        else if String.length s > 0 && s.[0] = '+' then
          String.sub s 1 (String.length s - 1), 1.
        else s, 1.
      in
      let digit c =
        if c >= '0' && c <= '9' then Some (Char.code c - Char.code '0')
        else if c >= 'a' && c <= 'z' then Some (Char.code c - Char.code 'a' + 10)
        else if c >= 'A' && c <= 'Z' then Some (Char.code c - Char.code 'A' + 10)
        else None
      in
      let acc = ref 0. and any = ref false and stop = ref false in
      String.iter
        (fun c ->
           if not !stop then
             match digit c with
             | Some d when d < radix ->
               acc := (!acc *. float_of_int radix) +. float_of_int d;
               any := true
             | _ -> stop := true)
        s;
      if !any then Num (sign *. !acc) else Num Float.nan);
  define_fn st st.global_obj "parseFloat" (fun st _ args ->
      Num (number_of_string (str_arg st 0 args)));
  define_fn st st.global_obj "isNaN" (fun st _ args ->
      Bool (Float.is_nan (num_arg st 0 args)));
  define_fn st st.global_obj "isFinite" (fun st _ args ->
      let f = num_arg st 0 args in
      Bool (not (Float.is_nan f) && Float.abs f <> Float.infinity));
  define st.global_obj "NaN" (Num Float.nan);
  define st.global_obj "Infinity" (Num Float.infinity);
  define_fn st st.number_proto "toFixed" (fun st this args ->
      let f = to_number st this in
      let digits = int_arg st 0 args in
      Str (Printf.sprintf "%.*f" digits f));
  define_fn st st.number_proto "toString" (fun st this args ->
      let f = to_number st this in
      match arg 0 args with
      | Undefined -> Str (Jsir.Printer.number_to_string f)
      | radix_v ->
        let radix = int_of_float (to_number st radix_v) in
        if radix < 2 || radix > 36 then
          throw_error st "RangeError" "toString() radix must be 2..36"
        else if radix = 10 then Str (Jsir.Printer.number_to_string f)
        else begin
          (* integral part only, as the workloads need (hex ids etc.) *)
          let n = int_of_float (Float.trunc (Float.abs f)) in
          let digit d =
            if d < 10 then Char.chr (Char.code '0' + d)
            else Char.chr (Char.code 'a' + d - 10)
          in
          let rec go acc n =
            if n = 0 then acc else go (String.make 1 (digit (n mod radix)) ^ acc) (n / radix)
          in
          let text = if n = 0 then "0" else go "" n in
          Str (if f < 0. then "-" ^ text else text)
        end)

let install st =
  install_object st;
  Json.install st;
  install_math st;
  install_array st;
  install_string st;
  install_console st;
  install_timers st;
  install_globals st
