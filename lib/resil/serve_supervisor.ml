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
  let steps = ref [] in
  (* a clean pre-mutation store, whatever the previous attempt did to
     the live one; runs with faults lifted — the plan targets the
     supervised apply, not the repair of its own damage *)
  let ensure_clean () =
    if Incr.dirty !store then store := Fault.suspended restore
  in
  let rec go k =
    let rung =
      if k = 1 then Repair else if k = retries then Rechase else Rederive
    in
    (match rung with
    | Repair -> ()
    | Rederive -> ensure_clean ()
    | Rechase ->
        ensure_clean ();
        store := Fault.suspended (fun () -> rechase !store));
    match Fault.attempt (fun () -> Incr.apply ?obs !store op) with
    | Ok eff ->
        steps :=
          { st_attempt = k; st_rung = rung; st_outcome = `Ok; st_backoff_ms = 0. }
          :: !steps;
        Applied (eff, List.rev !steps)
    | Error fault ->
        let retry = k < retries in
        let backoff =
          if retry then Fault.backoff ~base_ms:backoff_ms ~max_ms:max_backoff_ms k
          else 0.
        in
        steps :=
          {
            st_attempt = k;
            st_rung = rung;
            st_outcome = `Fault fault;
            st_backoff_ms = backoff;
          }
          :: !steps;
        if retry then begin
          if backoff > 0. then sleep (backoff /. 1000.);
          go (k + 1)
        end
        else begin
          (* quarantine: put the pre-mutation store back (even after a
             clean-but-failed rechase — the maintained trajectory is the
             one the WAL's replay reproduces) and keep serving *)
          store := Fault.suspended restore;
          Quarantined
            ( List.rev !steps,
              Printf.sprintf "quarantined after %d attempt(s): %s" k fault )
        end
  in
  go 1
