(* Unit and property tests for the ceres_util substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Welford *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let test_welford_basic () =
  let w = Ceres_util.Welford.create () in
  Alcotest.(check int) "empty count" 0 (Ceres_util.Welford.count w);
  Alcotest.(check (float 0.)) "empty mean" 0. (Ceres_util.Welford.mean w);
  List.iter (Ceres_util.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Ceres_util.Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5. (Ceres_util.Welford.mean w);
  Alcotest.(check (float 1e-9)) "total" 40. (Ceres_util.Welford.total w);
  (* two-pass sample variance of that data is 32/7 *)
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.)
    (Ceres_util.Welford.variance w)

let test_welford_single () =
  let w = Ceres_util.Welford.create () in
  Ceres_util.Welford.add w 42.;
  Alcotest.(check (float 0.)) "variance of one sample" 0.
    (Ceres_util.Welford.variance w);
  Alcotest.(check (float 0.)) "stddev of one sample" 0.
    (Ceres_util.Welford.stddev w)

let prop_welford_matches_two_pass =
  QCheck.Test.make ~name:"welford variance = two-pass variance" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 60) (float_range (-1000.) 1000.))
    (fun xs ->
       QCheck.assume (List.length xs >= 2);
       let w = Ceres_util.Welford.create () in
       List.iter (Ceres_util.Welford.add w) xs;
       let arr = Array.of_list xs in
       close ~eps:1e-8 (Ceres_util.Welford.variance w)
         (Ceres_util.Stats.variance arr)
       && close ~eps:1e-9 (Ceres_util.Welford.mean w)
            (Ceres_util.Stats.mean arr))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Ceres_util.Prng.of_int 7 and b = Ceres_util.Prng.of_int 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Ceres_util.Prng.next_int64 a)
      (Ceres_util.Prng.next_int64 b)
  done

let prop_prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:200 QCheck.int
    (fun seed ->
       let p = Ceres_util.Prng.of_int seed in
       let ok = ref true in
       for _ = 1 to 50 do
         let f = Ceres_util.Prng.float p in
         if not (f >= 0. && f < 1.) then ok := false
       done;
       !ok)

let prop_prng_int_range =
  QCheck.Test.make ~name:"prng int in [0,bound)" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
       let p = Ceres_util.Prng.of_int seed in
       let ok = ref true in
       for _ = 1 to 50 do
         let v = Ceres_util.Prng.int p bound in
         if not (v >= 0 && v < bound) then ok := false
       done;
       !ok)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 30) int))
    (fun (seed, xs) ->
       let arr = Array.of_list xs in
       let orig = Array.copy arr in
       Ceres_util.Prng.shuffle (Ceres_util.Prng.of_int seed) arr;
       List.sort compare (Array.to_list arr)
       = List.sort compare (Array.to_list orig))

(* ------------------------------------------------------------------ *)
(* Vclock *)

let test_vclock_accounting () =
  let c = Ceres_util.Vclock.create ~ticks_per_ms:100 () in
  Ceres_util.Vclock.advance c 250;
  Ceres_util.Vclock.advance_idle c 150L;
  Alcotest.(check int64) "busy" 250L (Ceres_util.Vclock.busy c);
  Alcotest.(check int64) "idle" 150L (Ceres_util.Vclock.idle c);
  Alcotest.(check int64) "now = busy + idle" 400L (Ceres_util.Vclock.now c);
  Alcotest.(check (float 1e-9)) "to_ms" 4. (Ceres_util.Vclock.to_ms c 400L);
  Alcotest.(check int64) "ms_to_ticks" 400L
    (Ceres_util.Vclock.ms_to_ticks c 4.)

let test_vclock_rejects_negative () =
  let c = Ceres_util.Vclock.create () in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Vclock.advance: negative cost") (fun () ->
        Ceres_util.Vclock.advance c (-1))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 35.
    (Ceres_util.Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p0" 15. (Ceres_util.Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 50.
    (Ceres_util.Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20.
    (Ceres_util.Stats.percentile xs 25.)

let test_jaccard () =
  let set xs =
    let t = Hashtbl.create 8 in
    List.iter (fun x -> Hashtbl.replace t x ()) xs;
    t
  in
  Alcotest.(check (float 1e-9)) "identical" 1.
    (Ceres_util.Stats.jaccard (set [ 1; 2 ]) (set [ 1; 2 ]));
  Alcotest.(check (float 1e-9)) "disjoint" 0.
    (Ceres_util.Stats.jaccard (set [ 1 ]) (set [ 2 ]));
  Alcotest.(check (float 1e-9)) "half" (1. /. 3.)
    (Ceres_util.Stats.jaccard (set [ 1; 2 ]) (set [ 2; 3 ]));
  Alcotest.(check (float 1e-9)) "both empty" 1.
    (Ceres_util.Stats.jaccard (set []) (set []))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Ceres_util.Table.create [ "a"; "bb" ] in
  Ceres_util.Table.add_row t [ "1"; "2" ];
  Ceres_util.Table.add_separator t;
  Ceres_util.Table.add_row t [ "333"; "4" ];
  let s = Ceres_util.Table.render t in
  Alcotest.(check bool) "contains header" true (Helpers.contains ~sub:"bb" s);
  Alcotest.(check bool) "contains wide cell" true (String.contains s '3');
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Ceres_util.Table.add_row t [ "only one" ])

let test_bar_chart () =
  let s = Ceres_util.Table.bar_chart ~width:10 [ ("x", 0.5); ("y", 2.0) ] in
  Alcotest.(check bool) "x at 50%" true
    (Helpers.contains ~sub:"50.0%" s);
  (* out-of-range fractions are clamped *)
  Alcotest.(check bool) "y clamped to 100%" true
    (Helpers.contains ~sub:"100.0%" s)

(* ------------------------------------------------------------------ *)
(* Symbol interning *)

let test_symbol_intern_idempotent () =
  let t = Ceres_util.Symbol.create () in
  let a = Ceres_util.Symbol.intern t "foo" in
  let b = Ceres_util.Symbol.intern t "bar" in
  Alcotest.(check bool) "distinct names, distinct syms" true (a <> b);
  Alcotest.(check int) "re-intern returns same sym" a
    (Ceres_util.Symbol.intern t "foo");
  Alcotest.(check string) "name round-trips" "foo"
    (Ceres_util.Symbol.name t a);
  Alcotest.(check string) "second name round-trips" "bar"
    (Ceres_util.Symbol.name t b)

let test_symbol_canonical_rule () =
  let t = Ceres_util.Symbol.create () in
  let canon s = Ceres_util.Symbol.canonical t (Ceres_util.Symbol.intern t s) in
  (* anything int_of_string_opt accepts aggregates as an element... *)
  List.iter
    (fun s -> Alcotest.(check string) ("canon " ^ s) "[elem]" (canon s))
    [ "0"; "7"; "42"; "007"; "0x10"; "-1" ];
  List.iter
    (fun s -> Alcotest.(check string) ("canon " ^ s) s (canon s))
    [ "x"; "length"; "1.5"; ""; "10e3" ];
  (* ...but only canonical non-negative decimals are array indices *)
  let idx s = Ceres_util.Symbol.array_index t (Ceres_util.Symbol.intern t s) in
  Alcotest.(check int) "7 is index 7" 7 (idx "7");
  Alcotest.(check int) "007 is not an index" (-1) (idx "007");
  Alcotest.(check int) "-1 is not an index" (-1) (idx "-1");
  Alcotest.(check int) "0x10 is not an index" (-1) (idx "0x10");
  Alcotest.(check int) "of_index = intern of decimal" (idx "123")
    (Ceres_util.Symbol.array_index t (Ceres_util.Symbol.of_index t 123));
  (* one canonical symbol per canonical name, "[elem]" included *)
  let csym s =
    Ceres_util.Symbol.canonical_sym t (Ceres_util.Symbol.intern t s)
  in
  List.iter
    (fun s -> Alcotest.(check int) ("canonical symbol " ^ s) (csym "0") (csym s))
    [ "7"; "007"; "0x10"; "-1"; "[elem]" ];
  List.iter
    (fun s ->
       Alcotest.(check int) ("canonical symbol " ^ s)
         (Ceres_util.Symbol.intern t s) (csym s))
    [ "x"; "length"; "1.5" ]

let prop_symbol_of_index_consistent =
  QCheck.Test.make ~name:"of_index i = intern (string_of_int i)" ~count:200
    QCheck.(int_range 0 100000)
    (fun i ->
       let t = Ceres_util.Symbol.create () in
       let a = Ceres_util.Symbol.of_index t i in
       let b = Ceres_util.Symbol.intern t (string_of_int i) in
       a = b
       && Ceres_util.Symbol.array_index t a = i
       && String.equal (Ceres_util.Symbol.name t a) (string_of_int i))

(* The encoder's escape against a per-character reference: quotes,
   backslashes and every control byte are escaped; any other byte, the
   bytes of UTF-8 sequences included, passes through. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       Buffer.add_string buf
         (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\t' -> "\\t"
          | '\r' -> "\\r"
          | '\b' -> "\\b"
          | '\012' -> "\\f"
          | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
          | c -> String.make 1 c))
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let prop_json_escape_matches_reference =
  let piece =
    QCheck.Gen.(
      oneof
        [ oneofl [ "\""; "\\"; "a"; "Ace"; " "; "\x7f"; "\xc3\xa9"; "\xe2\x82\xac" ];
          map (fun i -> String.make 1 (Char.chr i)) (int_range 0 0x1f);
          map (fun i -> String.make 1 (Char.chr i)) (int_range 0 255) ])
  in
  QCheck.Test.make ~name:"json string = per-character reference escape"
    ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 24) piece)))
    (fun s ->
       String.equal
         (Ceres_util.Json.to_string (Ceres_util.Json.Str s))
         (reference_escape s))

let suite =
  [ ("welford basic", `Quick, test_welford_basic);
    ("welford single sample", `Quick, test_welford_single);
    qtest prop_welford_matches_two_pass;
    ("prng deterministic", `Quick, test_prng_deterministic);
    qtest prop_prng_float_range;
    qtest prop_prng_int_range;
    qtest prop_shuffle_is_permutation;
    ("vclock accounting", `Quick, test_vclock_accounting);
    ("vclock negative", `Quick, test_vclock_rejects_negative);
    ("stats percentile", `Quick, test_percentile);
    ("stats jaccard", `Quick, test_jaccard);
    ("table render", `Quick, test_table_render);
    ("table bar chart", `Quick, test_bar_chart);
    ("symbol interning", `Quick, test_symbol_intern_idempotent);
    ("symbol canonical rule", `Quick, test_symbol_canonical_rule);
    qtest prop_symbol_of_index_consistent;
    qtest prop_json_escape_matches_reference ]
