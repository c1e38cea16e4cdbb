(* The dependence-analysis engine (paper Sec. 3.3).

   This module is deliberately free of interpreter value types: it
   receives loop events and accesses keyed by scope ids ([sid]),
   object ids ([oid]) and interned name symbols, maintains the
   characterization stack, stamps, and per-property write snapshots,
   and aggregates warnings. The glue that evaluates operands and
   performs the actual reads/writes lives in {!Install}.

   Reported access kinds, as in the paper:
   - (a) writes to variables declared outside the current loop
     iteration's context — output (write-after-write) dependences;
   - (b) writes to properties of objects instantiated outside the
     current iteration — output dependences, possibly anti;
   - (c) reads of properties last written in a *different* iteration —
     flow (read-after-write) dependences.

   Hot-path representation. Every access performs one or more stamp
   checks; with tens of millions of accesses per session these
   dominate the mode's cost, so the checks run entirely on packed
   ints:

   - the current loop stack is mirrored into a flat int array of
     (loop, instance, iteration) triples, outermost first, rebuilt on
     each (rare) loop event;
   - stamps are a frozen copy of that array plus a sequence number;
     all snapshots taken in the same stack configuration share one
     frozen array;
   - creation stamps live in dense arrays indexed by sid/oid, write
     and read snapshots in open-addressing {!Snaptab}s keyed on
     [(id lsl Symbol.bits) lor sym];
   - [scan] — an allocation-free mirror of {!Triple.characterize} —
     packs the whole characterization into one int code: the first
     level that is not [Ok_ok], its case (aligned [Dep_dep], aligned
     [Ok_dep] or unaligned) and, when unaligned, the first [Dep_dep]
     level below it. The code plus the current stack decodes to the
     level list and both carriers;
   - each frame carries a shape id, the interned path of loop ids from
     the outermost open loop down to it, so (shape, code) names a
     characterization exactly;
   - warnings are counted in an open-addressing table keyed on (kind,
     canonical name symbol, line, shape, code, carrier). Warnings fire
     hundreds of thousands of times per session but have only dozens of
     distinct records: the record and its level list are built the
     first time a key is seen, and every later firing is a probe and an
     increment. *)

module Symbol = Ceres_util.Symbol

(* Write sites of the polymorphism check, keyed (location name, line)
   without polymorphic compare on the per-write lookup. *)
module Sites = Hashtbl.Make (struct
  type t = string * int

  let equal (n1, l1) (n2, l2) = Int.equal l1 l2 && String.equal n1 n2
  let hash = Hashtbl.hash
end)

type access_kind =
  | Var_write of string
      (** plain reassignment of a shared variable: a leaked loop-local
          temporary, privatizable *)
  | Var_accum of string
      (** compound/self-referencing update of a shared variable: a
          reduction-style accumulation *)
  | Induction_write of string
      (** write to a for-head induction variable; real but trivially
          privatizable, so reported separately and ignored by the
          difficulty classifier *)
  | Prop_write of string
      (** write to a property of an object shared with other
          iterations — a potential output/anti dependence *)
  | Prop_overwrite of string
      (** the property had already been written in a different
          iteration of the same nest: an observed WAW dependence *)
  | Prop_read of string
      (** flow (read-after-write) dependence: the value read was
          produced by a different iteration *)
  | Prop_war of string
      (** anti (write-after-read) dependence: the overwritten value had
          been read by a different iteration — the paper's "may be
          involved in anti-dependencies" case for type (b) accesses *)

(* Array element names are canonicalised for aggregation: a loop that
   writes a[0], a[1], ... a[n] produces one warning family "[elem]"
   with a count, not n distinct warnings. Snapshots used for flow
   detection keep the exact element names. On the hot path the same
   rule is served precomputed by [Symbol.canonical]. *)
let canonical_prop prop =
  match int_of_string_opt prop with Some _ -> "[elem]" | None -> prop

let access_kind_to_string = function
  | Var_write name -> Printf.sprintf "write to variable %s" name
  | Var_accum name -> Printf.sprintf "accumulating write to variable %s" name
  | Induction_write name ->
    Printf.sprintf "write to induction variable %s" name
  | Prop_write prop -> Printf.sprintf "write to property %s" prop
  | Prop_overwrite prop ->
    Printf.sprintf "repeated write (WAW) to property %s" prop
  | Prop_read prop -> Printf.sprintf "read of property %s" prop
  | Prop_war prop ->
    Printf.sprintf "anti-dependent write (WAR) to property %s" prop

type warning = {
  kind : access_kind;
  line : int; (* source line of the access *)
  characterization : Triple.characterization;
  carrier : Jsir.Ast.loop_id option;
      (* the loop whose iterations carry / share the location; used to
         attribute the warning to a nest when classifying *)
}

type loop_dyn = {
  mutable instances : int;
  mutable cur_entry : int; (* seq at entry of current instance *)
  mutable dom_accesses : int; (* host DOM/canvas ops while this loop open *)
}

type frame = {
  floop : Jsir.Ast.loop_id;
  finstance : int;
  mutable fiteration : int;
  fshape : int; (* interned path of loop ids down to this frame *)
}

let no_marks : int array = [||]

(* The empty slot of the warning-count table. *)
let no_count = ref 0

type t = {
  infos : Jsir.Loops.info array;
  symtab : Symbol.table;
  dyn : loop_dyn array;
  prev_entry : int array;
      (* per loop: seq at entry of its previous instance; 0 if none *)
  mutable stack : frame list; (* innermost first; the authority *)
  mutable seq : int;
  (* flat mirror of [stack]: (loop, instance, iteration) outermost
     first, [depth] triples; resynced on every loop event *)
  mutable cur : int array;
  mutable depth : int;
  mutable frozen : int array; (* copy of cur[0 .. 3*depth), shared *)
  mutable frozen_ok : bool;
  mutable rec_now : bool; (* [recording] precomputed per loop event *)
  shapes : (int, int) Hashtbl.t; (* (parent shape, loop) -> shape id *)
  mutable shape : int; (* shape of the top frame; 0 = no open loop *)
  (* creation stamps, dense by sid/oid; marks [||] + seq 0 = root *)
  mutable s_marks : int array array;
  mutable s_seqs : int array;
  mutable o_marks : int array array;
  mutable o_seqs : int array;
  write_snaps : Snaptab.t;
  read_snaps : Snaptab.t;
      (* last read per (object, property): WAR detection *)
  var_snaps : Snaptab.t;
      (* last write per (owner scope, variable): distinguishes genuine
         cross-iteration accumulators from compound updates of a
         temporary assigned earlier in the same iteration *)
  (* Warning counts: open addressing, three key ints per slot (see
     [count_warning]), the count ref shared with [warnings]. *)
  mutable wkeys : int array; (* -1 in a slot's first int = empty *)
  mutable wcounts : int ref array; (* [no_count] = empty *)
  mutable wused : int;
  warnings : (warning, int ref) Hashtbl.t;
      (* the distinct records, inserted in first-sighting order: ties
         in [warnings]'s (line, kind) sort come out in this table's
         fold order *)
  tainted : bool array; (* recursion through the loop detected *)
  focus : bool array option; (* per loop: focused; None = everywhere *)
  mutable recursion_warnings : int;
  mutable accesses_checked : int;
  type_sites : string list ref Sites.t;
      (* (location name, line) -> distinct observed value types; backs
         the polymorphism check of the paper's Sec. 4.2 *)
}

let create ?focus ~symtab (infos : Jsir.Loops.info array) : t =
  let n = Array.length infos in
  { infos;
    symtab;
    dyn =
      Array.init n (fun _ ->
          { instances = 0; cur_entry = 0; dom_accesses = 0 });
    prev_entry = Array.make n 0;
    stack = [];
    seq = 1;
    cur = Array.make 24 0;
    depth = 0;
    frozen = no_marks;
    frozen_ok = true;
    rec_now = false;
    shapes = Hashtbl.create 64;
    shape = 0;
    s_marks = Array.make 256 no_marks;
    s_seqs = Array.make 256 0;
    o_marks = Array.make 4096 no_marks;
    o_seqs = Array.make 4096 0;
    write_snaps = Snaptab.create 4096;
    read_snaps = Snaptab.create 4096;
    var_snaps = Snaptab.create 1024;
    wkeys = Array.make (3 * 64) (-1);
    wcounts = Array.make 64 no_count;
    wused = 0;
    warnings = Hashtbl.create 64;
    tainted = Array.make n false;
    focus =
      Option.map (fun ids -> Array.init n (fun i -> List.mem i ids)) focus;
    recursion_warnings = 0;
    accesses_checked = 0;
    type_sites = Sites.create 256 }

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let recording t =
  match t.focus with
  | None -> t.stack <> []
  | Some focused -> List.exists (fun f -> focused.(f.floop)) t.stack

(* Mirror [stack] into the flat array after a loop event. *)
let resync t =
  let n = List.length t.stack in
  if 3 * n > Array.length t.cur then
    t.cur <- Array.make (max (3 * n) (2 * Array.length t.cur)) 0;
  t.depth <- n;
  let i = ref n in
  List.iter
    (fun (f : frame) ->
       decr i;
       let b = 3 * !i in
       t.cur.(b) <- f.floop;
       t.cur.(b + 1) <- f.finstance;
       t.cur.(b + 2) <- f.fiteration)
    t.stack;
  t.frozen_ok <- false;
  t.shape <- (match t.stack with f :: _ -> f.fshape | [] -> 0);
  t.rec_now <- recording t

(* The frozen mark array shared by every snapshot taken before the
   next loop event. *)
let freeze t =
  if not t.frozen_ok then begin
    t.frozen <- Array.sub t.cur 0 (3 * t.depth);
    t.frozen_ok <- true
  end;
  t.frozen

(* ------------------------------------------------------------------ *)
(* The flat scan: an allocation-free mirror of [Triple.characterize].
   By that function's rules a characterization is [k] aligned [Ok_ok]
   levels, then at level [k] one of
   - aligned [Dep_dep] or aligned [Ok_dep], poisoning every deeper
     level to unaligned [Dep_dep];
   - unaligned: unaligned [Ok_dep] down to the first level [j >= k]
     whose loop had another instance after the stamp, unaligned
     [Dep_dep] from [j] on;
   or [Ok_ok] throughout. The code packs the case (low two bits), [k]
   and [j]; with the current stack's loop ids it decodes to the level
   list and to both carriers. Any change to [Triple.characterize] must
   be mirrored here; a qcheck law pins the two together. *)

let aligned_dep_dep = 0
let aligned_ok_dep = 1
let unaligned = 2
let all_ok = 3 (* a whole code: no non-ok level *)

(* [k] and [j] are at most [depth], far under 2^20. *)
let pack_code case k j = case lor (k lsl 2) lor (j lsl 22)
let code_level code = (code lsr 2) land 0xFFFFF

let rec scan_unaligned cur depth prev_entry sseq k i =
  if
    i >= depth
    || Array.unsafe_get prev_entry (Array.unsafe_get cur (3 * i)) > sseq
  then pack_code unaligned k i
  else scan_unaligned cur depth prev_entry sseq k (i + 1)

let rec scan_aligned cur depth prev_entry smarks ns sseq i =
  if i >= depth then all_ok
  else begin
    let b = 3 * i in
    if i < ns && Array.unsafe_get smarks b = Array.unsafe_get cur b then begin
      if Array.unsafe_get smarks (b + 1) <> Array.unsafe_get cur (b + 1) then
        pack_code aligned_dep_dep i 0
      else if Array.unsafe_get smarks (b + 2) <> Array.unsafe_get cur (b + 2)
      then pack_code aligned_ok_dep i 0
      else scan_aligned cur depth prev_entry smarks ns sseq (i + 1)
    end
    else scan_unaligned cur depth prev_entry sseq i i
  end

let scan ~cur ~depth ~prev_entry smarks sseq =
  scan_aligned cur depth prev_entry smarks (Array.length smarks / 3) sseq 0

(* An aligned [Ok_dep] level: the relation is carried by that loop's
   iterations. *)
let carried code = code land 3 = aligned_ok_dep

let iteration_carrier_of_code ~cur code =
  if carried code then cur.(3 * code_level code) else -1

let sharing_carrier_of_code ~cur code =
  if code = all_ok then -1 else cur.(3 * code_level code)

let characterization_of_code ~cur ~depth code : Triple.characterization =
  let case = code land 3 and k = code_level code and j = code lsr 22 in
  List.init depth (fun i ->
      let lid = cur.(3 * i) in
      let flags, aligned =
        if case = all_ok || i < k then (Triple.Ok_ok, true)
        else if i = k && case = aligned_dep_dep then (Triple.Dep_dep, true)
        else if i = k && case = aligned_ok_dep then (Triple.Ok_dep, true)
        else if case = unaligned && i < j then (Triple.Ok_dep, false)
        else (Triple.Dep_dep, false)
      in
      { Triple.lid; flags; aligned })

let check t smarks sseq =
  scan ~cur:t.cur ~depth:t.depth ~prev_entry:t.prev_entry smarks sseq

(* ------------------------------------------------------------------ *)
(* Loop events                                                         *)

let on_loop_enter t id =
  let seq = next_seq t in
  let d = t.dyn.(id) in
  d.instances <- d.instances + 1;
  t.prev_entry.(id) <- d.cur_entry;
  d.cur_entry <- seq;
  (* Recursion guard: re-entering a loop that is already open means the
     loop body (transitively) called a function that reached the same
     syntactic loop. The characterization stack would grow unboundedly;
     the paper raises a warning and discards the nest's results. *)
  if List.exists (fun f -> f.floop = id) t.stack then begin
    t.tainted.(id) <- true;
    t.recursion_warnings <- t.recursion_warnings + 1
  end;
  let parent = match t.stack with f :: _ -> f.fshape | [] -> 0 in
  let shape_key = (parent * Array.length t.infos) + id in
  let shape =
    match Hashtbl.find_opt t.shapes shape_key with
    | Some shape -> shape
    | None ->
      let shape = Hashtbl.length t.shapes + 1 in
      Hashtbl.replace t.shapes shape_key shape;
      shape
  in
  t.stack <-
    { floop = id; finstance = d.instances; fiteration = 0; fshape = shape }
    :: t.stack;
  resync t

let on_loop_iter t id =
  ignore (next_seq t);
  (match t.stack with
   | f :: _ when f.floop = id -> f.fiteration <- f.fiteration + 1
   | _ ->
     (* Recursive shadowing: bump the topmost matching frame. *)
     (match List.find_opt (fun f -> f.floop = id) t.stack with
      | Some f -> f.fiteration <- f.fiteration + 1
      | None -> ()));
  resync t

let on_loop_exit t id =
  ignore (next_seq t);
  (match t.stack with
   | f :: rest when f.floop = id -> t.stack <- rest
   | _ ->
     (* Unwind to the matching frame (an exception may have skipped
        inner exits; the instrumenter's try/finally makes this rare). *)
     let rec drop = function
       | [] -> []
       | f :: rest -> if f.floop = id then rest else drop rest
     in
     t.stack <- drop t.stack);
  resync t

(* ------------------------------------------------------------------ *)
(* Creation stamping                                                   *)

let on_scope_created t ~sid =
  if sid >= Array.length t.s_seqs then begin
    let n = max (sid + 1) (2 * Array.length t.s_seqs) in
    let m = Array.make n no_marks and q = Array.make n 0 in
    Array.blit t.s_marks 0 m 0 (Array.length t.s_marks);
    Array.blit t.s_seqs 0 q 0 (Array.length t.s_seqs);
    t.s_marks <- m;
    t.s_seqs <- q
  end;
  t.s_marks.(sid) <- freeze t;
  t.s_seqs.(sid) <- next_seq t

let on_object_created t ~oid =
  if oid >= Array.length t.o_seqs then begin
    let n = max (oid + 1) (2 * Array.length t.o_seqs) in
    let m = Array.make n no_marks and q = Array.make n 0 in
    Array.blit t.o_marks 0 m 0 (Array.length t.o_marks);
    Array.blit t.o_seqs 0 q 0 (Array.length t.o_seqs);
    t.o_marks <- m;
    t.o_seqs <- q
  end;
  t.o_marks.(oid) <- freeze t;
  t.o_seqs.(oid) <- next_seq t

(* Unstamped ids (pre-analysis globals, setup state) read as the root
   stamp: no marks, sequence 0. *)
let scope_marks t sid =
  if sid < Array.length t.s_seqs then Array.unsafe_get t.s_marks sid
  else no_marks

let scope_seq t sid =
  if sid < Array.length t.s_seqs then Array.unsafe_get t.s_seqs sid else 0

let obj_marks t oid =
  if oid < Array.length t.o_seqs then Array.unsafe_get t.o_marks oid
  else no_marks

let obj_seq t oid =
  if oid < Array.length t.o_seqs then Array.unsafe_get t.o_seqs oid else 0

(* ------------------------------------------------------------------ *)
(* Access checks                                                       *)

(* Kind tags of the warning key; var kinds name the variable's own
   symbol, prop kinds its canonical symbol. *)
let tag_var_write = 0
let tag_var_accum = 1
let tag_induction = 2
let tag_prop_write = 3
let tag_prop_overwrite = 4
let tag_prop_read = 5
let tag_prop_war = 6

let kind_of_tag tag name =
  match tag with
  | 0 -> Var_write name
  | 1 -> Var_accum name
  | 2 -> Induction_write name
  | 3 -> Prop_write name
  | 4 -> Prop_overwrite name
  | 5 -> Prop_read name
  | _ -> Prop_war name

let whome mask a b c =
  let m = 0x2545F4914F6CDD1D in
  let h = ((((a * m) lxor b) * m) lxor c) * m in
  (h lsr 32) land mask

let rec wprobe keys mask a b c i =
  let s = 3 * i in
  let k = Array.unsafe_get keys s in
  if
    k = -1
    || (k = a
        && Array.unsafe_get keys (s + 1) = b
        && Array.unsafe_get keys (s + 2) = c)
  then i
  else wprobe keys mask a b c ((i + 1) land mask)

let wgrow t =
  let keys = t.wkeys and counts = t.wcounts in
  let cap = 2 * Array.length counts in
  t.wkeys <- Array.make (3 * cap) (-1);
  t.wcounts <- Array.make cap no_count;
  Array.iteri
    (fun i count ->
       if count != no_count then begin
         let a = keys.(3 * i) and b = keys.((3 * i) + 1)
         and c = keys.((3 * i) + 2) in
         let j = wprobe t.wkeys (cap - 1) a b c (whome (cap - 1) a b c) in
         t.wkeys.(3 * j) <- a;
         t.wkeys.((3 * j) + 1) <- b;
         t.wkeys.((3 * j) + 2) <- c;
         t.wcounts.(j) <- count
       end)
    counts

(* First sighting of a key: build the record at the current stack and
   share its count with the structural table. Distinct keys name
   distinct records, so that table sees the same inserts in the same
   order as one fed every firing (were two keys ever to name one
   record, they would share its count). *)
let first_sight t i ~a ~b ~code tag sym line carrier =
  let name =
    if tag >= tag_prop_write then Symbol.canonical t.symtab sym
    else Symbol.name t.symtab sym
  in
  let w =
    { kind = kind_of_tag tag name;
      line;
      characterization = characterization_of_code ~cur:t.cur ~depth:t.depth code;
      carrier = (if carrier < 0 then None else Some carrier) }
  in
  let count =
    match Hashtbl.find_opt t.warnings w with
    | Some count ->
      incr count;
      count
    | None ->
      let count = ref 1 in
      Hashtbl.replace t.warnings w count;
      count
  in
  t.wkeys.(3 * i) <- a;
  t.wkeys.((3 * i) + 1) <- b;
  t.wkeys.((3 * i) + 2) <- code;
  t.wcounts.(i) <- count;
  t.wused <- t.wused + 1;
  if 3 * t.wused >= 2 * Array.length t.wcounts then wgrow t

(* One warning firing. The key packs (line, name symbol, kind tag) and
   (shape, carrier) into two ints beside the code; symbols fit in
   [Symbol.bits] and loop ids in 21 bits. *)
let count_warning t tag sym line code carrier =
  let sym =
    if tag >= tag_prop_write then Symbol.canonical_sym t.symtab sym else sym
  in
  let a = (line lsl 24) lor (sym lsl 3) lor tag
  and b = (t.shape lsl 21) lor (carrier + 1) in
  let mask = Array.length t.wcounts - 1 in
  let i = wprobe t.wkeys mask a b code (whome mask a b code) in
  let count = Array.unsafe_get t.wcounts i in
  if count != no_count then incr count
  else first_sight t i ~a ~b ~code tag sym line carrier

(* Snapshot keys. Owner sids shift by 2 so the "no owner" (-1) case
   keeps its own key, as the (-1, name) tuples did. *)
let prop_key oid sym = (oid lsl Symbol.bits) lor sym
let var_key owner_sid sym = ((owner_sid + 2) lsl Symbol.bits) lor sym

let on_var_write ?(induction = false) ?(accum = false) t ~sym ~owner_sid
    ~line =
  if t.rec_now then begin
    t.accesses_checked <- t.accesses_checked + 1;
    let code =
      if owner_sid >= 0 then
        check t (scope_marks t owner_sid) (scope_seq t owner_sid)
      else check t no_marks 0 (* implicit/global variables: root stamp *)
    in
    if code <> all_ok then begin
      (* A compound update only behaves as a reduction when the value
         it folds over was produced by a *different* iteration; [x /=
         l] right after [x = e] in the same iteration is still a plain
         temporary write. *)
      let accum_carrier =
        if not accum then -1
        else begin
          let slot = Snaptab.find t.var_snaps (var_key owner_sid sym) in
          if slot < 0 || Snaptab.seq t.var_snaps slot = 0 then -1
          else
            iteration_carrier_of_code ~cur:t.cur
              (check t
                 (Snaptab.marks t.var_snaps slot)
                 (Snaptab.seq t.var_snaps slot))
        end
      in
      let tag =
        if induction then tag_induction
        else if accum_carrier >= 0 then tag_var_accum
        else tag_var_write
      in
      (* An accumulation is carried by the loop whose iterations the
         folded-over value actually flows across (the last-write
         diff), which may be an inner loop of the outermost shared
         level: [var v; for { v = 0; while { v += e } }] accumulates
         across the [while]'s iterations only — the [for]'s
         iterations each start from their own reset. Plain shared
         writes keep the outermost shared level as carrier. *)
      let carrier =
        if accum_carrier >= 0 then accum_carrier
        else sharing_carrier_of_code ~cur:t.cur code
      in
      count_warning t tag sym line code carrier
    end;
    Snaptab.set t.var_snaps (var_key owner_sid sym) (freeze t) (next_seq t)
  end

(* Characterization basis for a property access: when the receiver is a
   plain variable ([p.vX = ...]), the paper characterizes the access
   through the *binding* [p] — that is why extracting the loop body
   into a per-iteration callback turns those warnings into "ok ok" —
   while receivers produced by arbitrary expressions are characterized
   through the object's creation stamp (the proxy wrap). *)
type basis =
  | Via_object
  | Via_binding of int (* owner scope sid; -1 = unbound/global *)

(* Count an iteration-carried relation with the access recorded at a
   snapshot slot. *)
let carried_from t tab slot tag prop line =
  let code = check t (Snaptab.marks tab slot) (Snaptab.seq tab slot) in
  if carried code then
    count_warning t tag prop line code (iteration_carrier_of_code ~cur:t.cur code)

let on_prop_write t ~basis ~oid ~prop ~line =
  if t.rec_now then begin
    t.accesses_checked <- t.accesses_checked + 1;
    let key = prop_key oid prop in
    (* Observed WAW: the same (object, property) slot was already
       written in a different iteration of a still-open loop instance. *)
    let wslot = Snaptab.find t.write_snaps key in
    if wslot >= 0 && Snaptab.seq t.write_snaps wslot > 0 then
      carried_from t t.write_snaps wslot tag_prop_overwrite prop line;
    (* Observed WAR: the slot's previous value was read by a different
       iteration, so reordering the iterations would change that read.
       The write consumes the pending reads (later anti-dependences are
       relative to this new value). *)
    let rslot = Snaptab.find t.read_snaps key in
    if rslot >= 0 && Snaptab.seq t.read_snaps rslot > 0 then begin
      carried_from t t.read_snaps rslot tag_prop_war prop line;
      Snaptab.consume t.read_snaps rslot
    end;
    let code =
      match basis with
      | Via_object -> check t (obj_marks t oid) (obj_seq t oid)
      | Via_binding sid ->
        if sid >= 0 then check t (scope_marks t sid) (scope_seq t sid)
        else check t no_marks 0
    in
    if code <> all_ok then
      count_warning t tag_prop_write prop line code
        (sharing_carrier_of_code ~cur:t.cur code);
    (* Remember the write context for flow-dependence detection. *)
    Snaptab.set t.write_snaps key (freeze t) (next_seq t)
  end

let on_prop_read t ~oid ~prop ~line =
  if t.rec_now then begin
    t.accesses_checked <- t.accesses_checked + 1;
    let key = prop_key oid prop in
    (* Keep the most "foreign" unconsumed read: a pending read from an
       earlier iteration must not be masked by a same-iteration read of
       the slot, or the WAR against the eventual write would be lost. *)
    let rslot = Snaptab.find t.read_snaps key in
    let keep_old =
      rslot >= 0
      && Snaptab.seq t.read_snaps rslot > 0
      && carried
           (check t
              (Snaptab.marks t.read_snaps rslot)
              (Snaptab.seq t.read_snaps rslot))
    in
    if not keep_old then
      Snaptab.set t.read_snaps key (freeze t) (next_seq t);
    (* Only iteration-carried flow is a parallelization obstacle:
       values written before the loop's current instance began are
       inputs the instance could receive up front. *)
    let wslot = Snaptab.find t.write_snaps key in
    if wslot >= 0 && Snaptab.seq t.write_snaps wslot > 0 then
      carried_from t t.write_snaps wslot tag_prop_read prop line
  end

(* Observed-type tracking (paper Sec. 4.2): a write site is
   polymorphic when it stores values of more than one type there, not
   counting undefined/null ("we do not consider a variable polymorphic
   if it changes between defined, undefined, and null"). *)
let rec mem_tag tag = function
  | [] -> false
  | x :: rest -> String.equal x tag || mem_tag tag rest

let note_type t ~name ~line ~type_tag =
  if t.rec_now then begin
    match type_tag with
    | "undefined" -> ()
    | tag ->
      let key = (name, line) in
      (match Sites.find t.type_sites key with
       | tags -> if not (mem_tag tag !tags) then tags := tag :: !tags
       | exception Not_found -> Sites.add t.type_sites key (ref [ tag ]))
  end

(* Write sites (inside recorded loops) that stored more than one
   non-null type, with the types observed. *)
let polymorphic_sites t =
  Sites.fold
    (fun (name, line) tags acc ->
       let tags =
         List.filter (fun tag -> tag <> "null") !tags
         |> List.sort compare
       in
       if List.length tags >= 2 then (name, line, tags) :: acc else acc)
    t.type_sites []
  |> List.sort compare

let monomorphic_site_count t =
  Sites.length t.type_sites - List.length (polymorphic_sites t)

(* DOM/canvas traffic attribution: charge every open loop. *)
let on_host_access t =
  List.iter (fun f ->
      let d = t.dyn.(f.floop) in
      d.dom_accesses <- d.dom_accesses + 1)
    t.stack

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

let warnings t =
  Hashtbl.fold (fun w count acc -> (w, !count) :: acc) t.warnings []
  |> List.sort (fun ((a : warning), _) (b, _) ->
      compare (a.line, a.kind) (b.line, b.kind))

let in_nest t ~root id = Jsir.Loops.in_nest t.infos ~root id

(* Warnings whose innermost characterized level belongs to the loop
   nest rooted at [root] (per the static index) — the report view. *)
let warnings_for_nest t ~root =
  warnings t
  |> List.filter (fun ((w : warning), _) ->
      match List.rev w.characterization with
      | (innermost : Triple.level) :: _ -> in_nest t ~root innermost.lid
      | [] -> false)

(* Warnings that actually impede parallelizing iterations of loops in
   the nest rooted at [root]: their carrier loop lies inside the
   nest. *)
let warnings_impeding t ~root =
  warnings t
  |> List.filter (fun ((w : warning), _) ->
      match w.carrier with
      | Some c -> in_nest t ~root c
      | None -> false)

let is_tainted t id = t.tainted.(id)
let dom_accesses_in t id = t.dyn.(id).dom_accesses
let instances_of t id = t.dyn.(id).instances
let accesses_checked t = t.accesses_checked
let recursion_warnings t = t.recursion_warnings

let nest_dom_accesses t ~root =
  Jsir.Loops.descendants t.infos root
  |> List.fold_left (fun acc id -> acc + dom_accesses_in t id) 0
