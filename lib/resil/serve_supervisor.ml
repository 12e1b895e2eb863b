(** Per-mutation degradation ladder; see the interface for the state
    machine. *)

type rung = Repair | Rederive | Rechase

type step = {
  st_attempt : int;
  st_rung : rung;
  st_outcome : [ `Ok | `Fault of string ];
  st_backoff_ms : float;
}

type outcome =
  | Applied of Incr.effect * step list
  | Quarantined of step list * string

exception Fatal = Fault.Fatal

let rung_to_string = function
  | Repair -> "repair"
  | Rederive -> "rederive"
  | Rechase -> "rechase"

let apply ?(retries = 3) ?(backoff_ms = 50.) ?(max_backoff_ms = 1000.)
    ?(sleep = Unix.sleepf) ?obs ~restore ~rechase ~store op =
  let retries = max 1 retries in
  (* a clean pre-mutation store, whatever the previous attempt did to
     the live one; runs with faults lifted — the plan targets the
     supervised apply, not the repair of its own damage *)
  let ensure_clean () =
    if Incr.dirty !store then store := Fault.suspended restore
  in
  let rung k =
    if k = 1 then Repair else if k = retries then Rechase else Rederive
  in
  let step k st_outcome st_backoff_ms =
    { st_attempt = k; st_rung = rung k; st_outcome; st_backoff_ms }
  in
  let faults = List.map (fun (k, fault, ms) -> step k (`Fault fault) ms) in
  let attempt k =
    (match rung k with
    | Repair -> ()
    | Rederive -> ensure_clean ()
    | Rechase ->
        ensure_clean ();
        store := Fault.suspended (fun () -> rechase !store));
    Fault.attempt (fun () -> Incr.apply ?obs !store op)
  in
  match
    Fault.retry ~attempts:retries ~base_ms:backoff_ms ~max_ms:max_backoff_ms
      ~sleep attempt
  with
  | Ok (eff, failures) ->
      let k = List.length failures + 1 in
      Applied (eff, faults failures @ [ step k `Ok 0. ])
  | Error failures ->
      (* quarantine: put the pre-mutation store back (even after a
         clean-but-failed rechase — the maintained trajectory is the
         one the WAL's replay reproduces) and keep serving *)
      store := Fault.suspended restore;
      let _, last, _ = List.hd (List.rev failures) in
      Quarantined
        ( faults failures,
          Printf.sprintf "quarantined after %d attempt(s): %s" retries last )

(* ---- sessions --------------------------------------------------------- *)

(* The restore anchor of a supervised session: an exact image plus the
   mutations applied since (newest first), and how many of them this
   session applied — the rotation cadence counts those. *)
type anchor = {
  mutable image : Incr.image;
  mutable since : Incr.op list;
  mutable applied : int;
}

type session = {
  sigma : Tgds.Tgd.t list;
  retries : int option;
  sleep : (float -> unit) option;
  obs : Obs.Span.t option;
  checkpoint_every : int;
  wal : Wal.t option;
  anchor : anchor option;  (** [None]: the direct path *)
  store : Incr.t ref;
  mutable next : int;
  mutable degradations : int;
  mutable quarantined : int;
}

let rebuild sigma image ops =
  let st = Incr.of_image sigma image in
  List.iter (fun op -> ignore (Incr.apply st op)) ops;
  st

let replay sigma (r : Wal.recovery) =
  rebuild sigma r.rec_image (List.map snd r.rec_ops)

let make ?retries ?sleep ?obs ?(checkpoint_every = max_int)
    ?fault_plan ~wal ~anchor ~next sigma store =
  let s =
    {
      sigma;
      retries;
      sleep;
      obs;
      checkpoint_every;
      wal;
      anchor;
      store = ref store;
      next;
      degradations = 0;
      quarantined = 0;
    }
  in
  Option.iter Fault.arm_seq fault_plan;
  s

let start ?retries ?sleep ?obs ?checkpoint_every ?fault_plan ?wal sigma store =
  let make = make ?retries ?sleep ?obs ?checkpoint_every ?fault_plan in
  if wal = None && retries = None && fault_plan = None then
    make ~wal:None ~anchor:None ~next:1 sigma store
  else
    let image = Incr.image store in
    make
      ~wal:(Option.map (fun dir -> Wal.create ~dir image) wal)
      ~anchor:(Some { image; since = []; applied = 0 })
      ~next:1 sigma store

let resume ?retries ?sleep ?obs ?checkpoint_every ?fault_plan ~dir sigma
    (r : Wal.recovery) =
  let anchor =
    { image = r.rec_image; since = List.rev_map snd r.rec_ops; applied = 0 }
  in
  make ?retries ?sleep ?obs ?checkpoint_every ?fault_plan
    ~wal:(Some (Wal.reopen ~dir)) ~anchor:(Some anchor)
    ~next:(r.rec_last_seq + 1) sigma (replay sigma r)

(* Every attempt after the first runs on a higher rung. *)
let climbs steps = List.length steps - 1

let clean =
  [ { st_attempt = 1; st_rung = Repair; st_outcome = `Ok; st_backoff_ms = 0. } ]

let re_anchor s a ~seq =
  a.image <- Incr.image !(s.store);
  a.since <- [];
  a.applied <- 0;
  Option.iter (fun w -> Wal.rotate w ~seq a.image) s.wal

let step s op =
  let seq = s.next in
  s.next <- seq + 1;
  Option.iter (fun w -> Wal.append w (Wal.Op (seq, op))) s.wal;
  match s.anchor with
  | None -> Applied (Incr.apply ?obs:s.obs !(s.store) op, clean)
  | Some a -> (
      let restore () = rebuild s.sigma a.image (List.rev a.since) in
      let rechase st = Incr.create s.sigma (Incr.base st) in
      let outcome =
        apply ?retries:s.retries ?sleep:s.sleep ?obs:s.obs ~restore ~rechase
          ~store:s.store op
      in
      match outcome with
      | Applied (_, steps) ->
          a.since <- op :: a.since;
          a.applied <- a.applied + 1;
          s.degradations <- s.degradations + climbs steps;
          (* after a climb the store may sit on a re-chased trajectory
             that no replay of the old anchor reproduces *)
          if climbs steps > 0 || a.applied >= s.checkpoint_every then
            re_anchor s a ~seq;
          outcome
      | Quarantined (steps, _) ->
          s.degradations <- s.degradations + climbs steps;
          s.quarantined <- s.quarantined + 1;
          Option.iter (fun w -> Wal.append w (Wal.Quarantine seq)) s.wal;
          outcome)

let store s = !(s.store)
let next_seq s = s.next
let degradations s = s.degradations
let quarantined s = s.quarantined

let close s =
  Fault.disarm ();
  Option.iter Wal.close s.wal
