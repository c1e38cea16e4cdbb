(* Call-site census.

   The paper leans on Richards et al. [31] for context: in real-world
   JavaScript "81% of the call sites ... were monomorphic. Further,
   over 90% of functions were non-variadic", and argues (Sec. 5.2)
   that monomorphic code lets engines keep a fast path. This monitor
   measures the same two quantities on our workloads: per syntactic
   call site, the set of distinct callees observed and the set of
   argument counts. It attaches to the interpreter's call-site hook,
   so it works on *uninstrumented* runs (no Ceres mode needed). *)

open Interp.Value

type site = {
  line : int;
  mutable calls : int;
  callees : (int, unit) Hashtbl.t; (* function object oids *)
  arities : (int, unit) Hashtbl.t;
}

type t = { sites : (int, site) Hashtbl.t (* keyed by source line *) }

let attach (st : state) : t =
  let t = { sites = Hashtbl.create 256 } in
  st.on_call_site <-
    Some
      (fun line callee argc ->
         let site =
           match Hashtbl.find_opt t.sites line with
           | Some s -> s
           | None ->
             let s =
               { line; calls = 0; callees = Hashtbl.create 2;
                 arities = Hashtbl.create 2 }
             in
             Hashtbl.replace t.sites line s;
             s
         in
         site.calls <- site.calls + 1;
         (match callee with
          | Obj o -> Hashtbl.replace site.callees o.oid ()
          | _ -> ());
         Hashtbl.replace site.arities argc ());
  t

type census = {
  sites_total : int;
  monomorphic : int; (* exactly one callee ever observed *)
  non_variadic : int; (* exactly one argument count observed *)
  calls_total : int;
}

let census t : census =
  Hashtbl.fold
    (fun _ (s : site) acc ->
       { sites_total = acc.sites_total + 1;
         monomorphic =
           (acc.monomorphic + if Hashtbl.length s.callees <= 1 then 1 else 0);
         non_variadic =
           (acc.non_variadic + if Hashtbl.length s.arities <= 1 then 1 else 0);
         calls_total = acc.calls_total + s.calls })
    t.sites
    { sites_total = 0; monomorphic = 0; non_variadic = 0; calls_total = 0 }
