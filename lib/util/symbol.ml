(* Interned program symbols.

   One table per interpreter state: the resolver interns every
   identifier, property name and string literal it sees, and the
   dependence runtime keys its snapshot tables on the resulting small
   ints. Equality and hashing on symbols are the int primitives;
   strings only reappear at report time via [name]/[canonical].

   Canonicalization (numeric property names fold to "[elem]" for
   warning aggregation) is computed once here, at intern time — the
   hot path never re-parses the string. So is the canonical *symbol*:
   every name whose canonical form is "[elem]" shares one id, so the
   dependence runtime's warning keys compare ints, never strings. *)

type table = {
  by_name : (string, int) Hashtbl.t;
  mutable names : string array; (* sym -> name *)
  mutable canon : string array; (* sym -> canonical display name *)
  mutable canon_sym : int array; (* sym -> canonical symbol *)
  mutable elem_sym : int; (* shared canonical symbol of "[elem]", -1 unset *)
  mutable index : int array; (* sym -> canonical array index, -1 if none *)
  mutable count : int;
  mutable by_index : int array; (* small array index -> sym, -1 unset *)
  mutable gslots : int array; (* sym -> global frame slot, -1 unset *)
  mutable gslot_count : int;
}

(* Symbols participate in packed int keys ((oid lsl bits) lor sym), so
   a table may not outgrow this. Programs have a few thousand distinct
   names; 2^21 is far above any real input. *)
let bits = 21
let max_symbols = 1 lsl bits

let create () =
  {
    by_name = Hashtbl.create 256;
    names = Array.make 64 "";
    canon = Array.make 64 "";
    canon_sym = Array.make 64 (-1);
    elem_sym = -1;
    index = Array.make 64 (-1);
    count = 0;
    by_index = Array.make 64 (-1);
    gslots = Array.make 64 (-1);
    gslot_count = 0;
  }

let grow arr len default =
  let n = Array.length arr in
  if len <= n then arr
  else begin
    let arr' = Array.make (max len (2 * n)) default in
    Array.blit arr 0 arr' 0 n;
    arr'
  end

let intern t s =
  match Hashtbl.find_opt t.by_name s with
  | Some sym -> sym
  | None ->
    let sym = t.count in
    if sym >= max_symbols then invalid_arg "Symbol.intern: table full";
    t.count <- sym + 1;
    t.names <- grow t.names t.count "";
    t.canon <- grow t.canon t.count "";
    t.canon_sym <- grow t.canon_sym t.count (-1);
    t.index <- grow t.index t.count (-1);
    t.gslots <- grow t.gslots t.count (-1);
    t.names.(sym) <- s;
    (* canonical-array-index check, mirroring
       [Value.array_index_of_key], paid exactly once per name *)
    (match int_of_string_opt s with
     | Some i ->
       (* Aggregation folds *anything* [int_of_string_opt] accepts (the
          runtime's historical rule, so "007" or "0x10" aggregate as
          elements too), but only canonical non-negative decimals are
          real array indices. *)
       t.canon.(sym) <- "[elem]";
       if i >= 0 && String.equal (string_of_int i) s then begin
         t.index.(sym) <- i;
         if i < 1 lsl 16 then begin
           t.by_index <- grow t.by_index (i + 1) (-1);
           t.by_index.(i) <- sym
         end
       end
     | None -> t.canon.(sym) <- s);
    (* The first name that canonicalizes to "[elem]" (a numeric name or
       the literal "[elem]" itself) lends its id to all the others. *)
    if String.equal t.canon.(sym) "[elem]" then begin
      if t.elem_sym < 0 then t.elem_sym <- sym;
      t.canon_sym.(sym) <- t.elem_sym
    end
    else t.canon_sym.(sym) <- sym;
    Hashtbl.replace t.by_name s sym;
    sym

let name t sym = t.names.(sym)
let canonical t sym = t.canon.(sym)
let canonical_sym t sym = t.canon_sym.(sym)
let array_index t sym = t.index.(sym)
let count t = t.count

(* Small-int fast path: symbol of [string_of_int i] without building
   the string after the first time. *)
let of_index t i =
  if i >= 0 && i < Array.length t.by_index && t.by_index.(i) >= 0 then
    t.by_index.(i)
  else intern t (string_of_int i)

(* Global frame slots are allocated here (not per program) so that
   several programs resolved against one interpreter state agree on
   the layout of the shared global frame. *)
let global_slot t sym =
  if t.gslots.(sym) >= 0 then t.gslots.(sym)
  else begin
    let slot = t.gslot_count in
    t.gslot_count <- slot + 1;
    t.gslots.(sym) <- slot;
    slot
  end

let find_global_slot t sym =
  if sym < t.count then t.gslots.(sym) else -1

let global_slot_count t = t.gslot_count
