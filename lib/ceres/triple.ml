(* Characterization triples and stamps (paper Sec. 3.3).

   At every moment of an instrumented execution the runtime maintains a
   stack of triples, one per open loop:

     (loop identifier, instance number, iteration number)

   where the instance number counts how many times the syntactic loop
   has been *entered* so far, and the iteration number counts backedges
   within the current instance. Objects and scopes are stamped with the
   stack current at their creation plus a global event sequence number.
   Diffing an access's current stack against a stamp yields, per loop
   level, a pair of flags:

     - instance flag: "ok" when each runtime instance of the loop has
       its own private version of the location, "dependence" when
       instances share it;
     - iteration flag: same question for iterations of one instance.

   "dependence ok" is not expressible: sharing across instances implies
   sharing across iterations, which the flag pair type below encodes by
   construction. *)

type mark = { loop : Jsir.Ast.loop_id; instance : int; iteration : int }

type stamp = { marks : mark array; seq : int }
(** Loop stack at creation time (outermost first) and the global event
    sequence number of the creation. *)

(** Per-level verdict. The paper's invalid "dependence ok" combination
    is unrepresentable. *)
type flags =
  | Ok_ok        (** private per instance and per iteration *)
  | Ok_dep       (** private per instance, shared across iterations *)
  | Dep_dep      (** shared across instances (hence across iterations) *)

type level = {
  lid : Jsir.Ast.loop_id;
  flags : flags;
  aligned : bool;
      (** true when the stamp had a matching mark for this loop level:
          the location was created (or last written) while this very
          loop was open, so a non-[Ok_ok] flag here is a *loop-carried*
          dependence rather than mere pre-existence. *)
}

type characterization = level list
(** One verdict per open loop, outermost first. *)

(* The loop whose *iterations* carry the dependence: the outermost
   aligned level where the two contexts are in the same instance but
   different iterations. Dependences between different instances of a
   loop, or between a loop and code before it, are ordered by the
   program anyway and do not impede running one instance's iterations
   in parallel. *)
let iteration_carrier (c : characterization) =
  List.find_map
    (fun l -> if l.aligned && l.flags = Ok_dep then Some l.lid else None)
    c

(* For write advisories the carrier is simply the outermost shared
   level: all iterations (and possibly instances) of that loop see the
   same location. *)
let sharing_carrier (c : characterization) =
  List.find_map
    (fun l -> if l.flags <> Ok_ok then Some l.lid else None)
    c

let flags_strings = function
  | Ok_ok -> ("ok", "ok")
  | Ok_dep -> ("ok", "dependence")
  | Dep_dep -> ("dependence", "dependence")

(* Render in the paper's arrow notation, resolving loop labels through
   the static index: "while(line 24) ok ok → for(line 6) ok dependence". *)
let to_string (infos : Jsir.Loops.info array) (c : characterization) =
  c
  |> List.map (fun l ->
      let a, b = flags_strings l.flags in
      Printf.sprintf "%s %s %s"
        (Jsir.Loops.label (Jsir.Loops.find infos l.lid))
        a b)
  |> String.concat " -> "

(* The diff. [prev_entry_seq] reports, for a loop id, the global
   sequence at which the loop's PREVIOUS instance was entered (or 0 if
   it has run at most once): it lets the exhaustion case distinguish
   "first instance to see this location" (private so far → instance ok)
   from "other instances already existed after the location was created"
   (shared → instance dependence). *)
let characterize ~(prev_entry_seq : Jsir.Ast.loop_id -> int) (stamp : stamp)
    (current : mark list) : characterization =
  let n_stamp = Array.length stamp.marks in
  (* [poisoned]: an outer level proved cross-instance sharing, which
     forces every deeper level to Dep_dep. [exhausted]: positional
     alignment with the stamp has ended (stamp ran out or loop shapes
     diverged); deeper levels are judged by the sequence rule only. *)
  let rec go i poisoned exhausted current acc =
    match current with
    | [] -> List.rev acc
    | m :: rest ->
      if poisoned then
        go (i + 1) true true rest
          ({ lid = m.loop; flags = Dep_dep; aligned = not exhausted } :: acc)
      else if (not exhausted) && i < n_stamp && stamp.marks.(i).loop = m.loop
      then begin
        let s = stamp.marks.(i) in
        if s.instance <> m.instance then
          go (i + 1) true true rest
            ({ lid = m.loop; flags = Dep_dep; aligned = true } :: acc)
        else if s.iteration <> m.iteration then
          go (i + 1) true true rest
            ({ lid = m.loop; flags = Ok_dep; aligned = true } :: acc)
        else
          go (i + 1) false false rest
            ({ lid = m.loop; flags = Ok_ok; aligned = true } :: acc)
      end
      else begin
        (* The location predates this loop level's current instance. *)
        if prev_entry_seq m.loop > stamp.seq then
          go (i + 1) true true rest
            ({ lid = m.loop; flags = Dep_dep; aligned = false } :: acc)
        else
          go (i + 1) false true rest
            ({ lid = m.loop; flags = Ok_dep; aligned = false } :: acc)
      end
  in
  go 0 false false current []
