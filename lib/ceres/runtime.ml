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
     answers the three hot questions (problematic? iteration carrier?
     sharing carrier?) in one pass; the full [Triple.characterize]
     runs only when a warning actually fires, so stored
     characterizations (and hence warning aggregation and rendering)
     are bit-for-bit those of the list-based implementation. *)

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
  mutable prev_entry : int; (* seq at entry of previous instance; 0 if none *)
  mutable dom_accesses : int; (* host DOM/canvas ops while this loop open *)
}

type frame = {
  floop : Jsir.Ast.loop_id;
  finstance : int;
  mutable fiteration : int;
}

let no_marks : int array = [||]

type t = {
  infos : Jsir.Loops.info array;
  symtab : Symbol.table;
  dyn : loop_dyn array;
  mutable stack : frame list; (* innermost first; the authority *)
  mutable seq : int;
  (* flat mirror of [stack]: (loop, instance, iteration) outermost
     first, [depth] triples; resynced on every loop event *)
  mutable cur : int array;
  mutable depth : int;
  mutable frozen : int array; (* copy of cur[0 .. 3*depth), shared *)
  mutable frozen_ok : bool;
  mutable rec_now : bool; (* [recording] precomputed per loop event *)
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
  warnings : (warning, int ref) Hashtbl.t;
  tainted : bool array; (* recursion through the loop detected *)
  focus : Jsir.Ast.loop_id list; (* [] = record everywhere *)
  mutable recursion_warnings : int;
  mutable accesses_checked : int;
  type_sites : string list ref Sites.t;
      (* (location name, line) -> distinct observed value types; backs
         the polymorphism check of the paper's Sec. 4.2 *)
}

let create ?(focus = []) ~symtab (infos : Jsir.Loops.info array) : t =
  let n = Array.length infos in
  { infos;
    symtab;
    dyn =
      Array.init n (fun _ ->
          { instances = 0; cur_entry = 0; prev_entry = 0; dom_accesses = 0 });
    stack = [];
    seq = 1;
    cur = Array.make 24 0;
    depth = 0;
    frozen = no_marks;
    frozen_ok = true;
    rec_now = false;
    s_marks = Array.make 256 no_marks;
    s_seqs = Array.make 256 0;
    o_marks = Array.make 4096 no_marks;
    o_seqs = Array.make 4096 0;
    write_snaps = Snaptab.create 4096;
    read_snaps = Snaptab.create 4096;
    var_snaps = Snaptab.create 1024;
    warnings = Hashtbl.create 64;
    tainted = Array.make n false;
    focus;
    recursion_warnings = 0;
    accesses_checked = 0;
    type_sites = Sites.create 256 }

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let current_marks t : Triple.mark list =
  List.rev_map
    (fun f ->
       { Triple.loop = f.floop; instance = f.finstance; iteration = f.fiteration })
    t.stack

let recording t =
  match t.focus with
  | [] -> t.stack <> []
  | focus -> List.exists (fun f -> List.mem f.floop focus) t.stack

let prev_entry_seq t loop = t.dyn.(loop).prev_entry

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
  t.rec_now <- recording t

(* The frozen mark array shared by every snapshot taken before the
   next loop event. *)
let freeze t =
  if not t.frozen_ok then begin
    t.frozen <- Array.sub t.cur 0 (3 * t.depth);
    t.frozen_ok <- true
  end;
  t.frozen

let stamp_of_flat (marks : int array) seq : Triple.stamp =
  let n = Array.length marks / 3 in
  { Triple.marks =
      Array.init n (fun i ->
          { Triple.loop = marks.(3 * i);
            instance = marks.(3 * i + 1);
            iteration = marks.(3 * i + 2) });
    seq }

(* ------------------------------------------------------------------ *)
(* The flat scan: an allocation-free mirror of [Triple.characterize]
   computing only what the hot path needs — is any level non-ok, the
   outermost aligned same-instance/different-iteration level (the
   iteration carrier), and the outermost non-ok level (the sharing
   carrier). The result is packed into one int. Any change to
   [Triple.characterize] must be mirrored here: accesses that turn out
   problematic re-run the full characterization for the warning
   record, and the two must agree. *)

let pack problematic itc shc =
  (if problematic then 1 else 0)
  lor ((itc + 1) lsl 1)
  lor ((shc + 1) lsl 21)

let scan_problematic r = r land 1 <> 0
let scan_iter_carrier r = ((r lsr 1) land 0xFFFFF) - 1 (* -1 = none *)
let scan_sharing_carrier r = (r lsr 21) - 1

let rec scan_from t smarks ns sseq i poisoned exhausted problematic itc shc =
  if i >= t.depth then pack problematic itc shc
  else begin
    let b = 3 * i in
    let lid = Array.unsafe_get t.cur b in
    let shc' = if shc < 0 then lid else shc in
    if poisoned then
      (* Dep_dep, unaligned *)
      scan_from t smarks ns sseq (i + 1) true true true itc shc'
    else if
      (not exhausted) && i < ns && Array.unsafe_get smarks b = lid
    then begin
      if Array.unsafe_get smarks (b + 1) <> Array.unsafe_get t.cur (b + 1)
      then (* Dep_dep, aligned *)
        scan_from t smarks ns sseq (i + 1) true true true itc shc'
      else if
        Array.unsafe_get smarks (b + 2) <> Array.unsafe_get t.cur (b + 2)
      then
        (* Ok_dep, aligned: the iteration carrier (outermost wins) *)
        scan_from t smarks ns sseq (i + 1) true true true
          (if itc < 0 then lid else itc)
        shc'
      else (* Ok_ok *)
        scan_from t smarks ns sseq (i + 1) false false problematic itc shc
    end
    else if t.dyn.(lid).prev_entry > sseq then
      (* Dep_dep, unaligned (another instance postdates the stamp) *)
      scan_from t smarks ns sseq (i + 1) true true true itc shc'
    else (* Ok_dep, unaligned: shared but not iteration-carried *)
      scan_from t smarks ns sseq (i + 1) false true true itc shc'
  end

let scan t smarks sseq =
  scan_from t smarks (Array.length smarks / 3) sseq 0 false false false (-1)
    (-1)

(* ------------------------------------------------------------------ *)
(* Loop events                                                         *)

let on_loop_enter t id =
  let seq = next_seq t in
  let d = t.dyn.(id) in
  d.instances <- d.instances + 1;
  d.prev_entry <- d.cur_entry;
  d.cur_entry <- seq;
  (* Recursion guard: re-entering a loop that is already open means the
     loop body (transitively) called a function that reached the same
     syntactic loop. The characterization stack would grow unboundedly;
     the paper raises a warning and discards the nest's results. *)
  if List.exists (fun f -> f.floop = id) t.stack then begin
    t.tainted.(id) <- true;
    t.recursion_warnings <- t.recursion_warnings + 1
  end;
  t.stack <- { floop = id; finstance = d.instances; fiteration = 0 } :: t.stack;
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

let add_warning t kind line characterization carrier =
  let w = { kind; line; characterization; carrier } in
  match Hashtbl.find_opt t.warnings w with
  | Some count -> incr count
  | None -> Hashtbl.replace t.warnings w (ref 1)

(* Cold path only: the full list characterization, for warning
   records. *)
let characterize_against t stamp =
  Triple.characterize ~prev_entry_seq:(prev_entry_seq t) stamp
    (current_marks t)

(* Snapshot keys. Owner sids shift by 2 so the "no owner" (-1) case
   keeps its own key, as the (-1, name) tuples did. *)
let prop_key oid sym = (oid lsl Symbol.bits) lor sym
let var_key owner_sid sym = ((owner_sid + 2) lsl Symbol.bits) lor sym

let on_var_write ?(induction = false) ?(accum = false) t ~sym ~owner_sid
    ~line =
  if t.rec_now then begin
    t.accesses_checked <- t.accesses_checked + 1;
    let r =
      if owner_sid >= 0 then scan t (scope_marks t owner_sid) (scope_seq t owner_sid)
      else scan t no_marks 0 (* implicit/global variables: root stamp *)
    in
    if scan_problematic r then begin
      let c =
        characterize_against t
          (if owner_sid >= 0 then
             stamp_of_flat (scope_marks t owner_sid) (scope_seq t owner_sid)
           else Triple.root_stamp)
      in
      (* A compound update only behaves as a reduction when the value
         it folds over was produced by a *different* iteration; [x /=
         l] right after [x = e] in the same iteration is still a plain
         temporary write. *)
      let accum_carrier =
        if not accum then None
        else begin
          let slot = Snaptab.find t.var_snaps (var_key owner_sid sym) in
          if slot < 0 || Snaptab.seq t.var_snaps slot = 0 then None
          else
            Triple.iteration_carrier
              (characterize_against t
                 (stamp_of_flat
                    (Snaptab.marks t.var_snaps slot)
                    (Snaptab.seq t.var_snaps slot)))
        end
      in
      let name = Symbol.name t.symtab sym in
      let kind =
        if induction then Induction_write name
        else if accum_carrier <> None then Var_accum name
        else Var_write name
      in
      (* An accumulation is carried by the loop whose iterations the
         folded-over value actually flows across (the last-write
         diff), which may be an inner loop of the outermost shared
         level: [var v; for { v = 0; while { v += e } }] accumulates
         across the [while]'s iterations only — the [for]'s
         iterations each start from their own reset. Plain shared
         writes keep the outermost shared level as carrier. *)
      let carrier =
        match accum_carrier with
        | Some _ as it -> it
        | None -> Triple.sharing_carrier c
      in
      add_warning t kind line c carrier
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

let on_prop_write t ~basis ~oid ~prop ~line =
  if t.rec_now then begin
    t.accesses_checked <- t.accesses_checked + 1;
    let key = prop_key oid prop in
    (* Observed WAW: the same (object, property) slot was already
       written in a different iteration of a still-open loop instance. *)
    let wslot = Snaptab.find t.write_snaps key in
    if wslot >= 0 && Snaptab.seq t.write_snaps wslot > 0 then begin
      let sm = Snaptab.marks t.write_snaps wslot
      and sq = Snaptab.seq t.write_snaps wslot in
      if scan_iter_carrier (scan t sm sq) >= 0 then begin
        let c = characterize_against t (stamp_of_flat sm sq) in
        add_warning t
          (Prop_overwrite (Symbol.canonical t.symtab prop))
          line c
          (Triple.iteration_carrier c)
      end
    end;
    (* Observed WAR: the slot's previous value was read by a different
       iteration, so reordering the iterations would change that read.
       The write consumes the pending reads (later anti-dependences are
       relative to this new value). *)
    let rslot = Snaptab.find t.read_snaps key in
    if rslot >= 0 && Snaptab.seq t.read_snaps rslot > 0 then begin
      let sm = Snaptab.marks t.read_snaps rslot
      and sq = Snaptab.seq t.read_snaps rslot in
      if scan_iter_carrier (scan t sm sq) >= 0 then begin
        let c = characterize_against t (stamp_of_flat sm sq) in
        add_warning t
          (Prop_war (Symbol.canonical t.symtab prop))
          line c
          (Triple.iteration_carrier c)
      end;
      Snaptab.consume t.read_snaps rslot
    end;
    let r =
      match basis with
      | Via_object -> scan t (obj_marks t oid) (obj_seq t oid)
      | Via_binding sid ->
        if sid >= 0 then scan t (scope_marks t sid) (scope_seq t sid)
        else scan t no_marks 0
    in
    if scan_problematic r then begin
      let c =
        characterize_against t
          (match basis with
           | Via_object -> stamp_of_flat (obj_marks t oid) (obj_seq t oid)
           | Via_binding sid ->
             if sid >= 0 then
               stamp_of_flat (scope_marks t sid) (scope_seq t sid)
             else Triple.root_stamp)
      in
      add_warning t
        (Prop_write (Symbol.canonical t.symtab prop))
        line c
        (Triple.sharing_carrier c)
    end;
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
      && scan_iter_carrier
           (scan t
              (Snaptab.marks t.read_snaps rslot)
              (Snaptab.seq t.read_snaps rslot))
         >= 0
    in
    if not keep_old then
      Snaptab.set t.read_snaps key (freeze t) (next_seq t);
    let wslot = Snaptab.find t.write_snaps key in
    if wslot >= 0 && Snaptab.seq t.write_snaps wslot > 0 then begin
      let sm = Snaptab.marks t.write_snaps wslot
      and sq = Snaptab.seq t.write_snaps wslot in
      (* Only iteration-carried flow is a parallelization obstacle:
         values written before the loop's current instance began are
         inputs the instance could receive up front. *)
      if scan_iter_carrier (scan t sm sq) >= 0 then begin
        let c = characterize_against t (stamp_of_flat sm sq) in
        add_warning t
          (Prop_read (Symbol.canonical t.symtab prop))
          line c
          (Triple.iteration_carrier c)
      end
    end
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

(* Referenced only so the mirror-of-characterize contract keeps both
   carrier decoders exercised by the tests. *)
let _ = scan_sharing_carrier
