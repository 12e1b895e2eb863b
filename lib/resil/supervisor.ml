(** Retrying supervisor; see the interface for the state machine. *)

type attempt = {
  attempt : int;
  fault : string;
  resumed_from : int option;
  backoff_ms : float;
}

type attempt_log = attempt list
type diagnostic = { message : string; attempts : attempt_log }

type outcome =
  | Completed of Tgds.Chase.result
  | Recovered of Tgds.Chase.result * attempt_log
  | Failed of diagnostic

let run ?(policy = Tgds.Chase.Oblivious) ?budget ?(checkpoint_every = 1)
    ?checkpoint_path ?resume_from ?(retries = 2) ?(backoff_ms = 50.)
    ?(max_backoff_ms = 1000.) ?(sleep = Unix.sleepf) ?clock
    ?(fault_plan = Fault.none) ?obs sigma db =
  (* Restart-from-scratch resets the null supply to where this run found
     it, so every attempt invents the same null ids an uninterrupted run
     would (resume does the same from its snapshot). *)
  let null0 = Relational.Term.null_count () in
  let last_ck : Checkpoint.t option ref = ref resume_from in
  let log = ref [] in
  let ck_every = max 1 checkpoint_every in
  let on_pass ~level ~saturated take =
    if saturated || level mod ck_every = 0 then begin
      let s = take () in
      last_ck := Some s;
      Option.iter (fun p -> Checkpoint.save p s) checkpoint_path
    end
  in
  let chase () =
    match !last_ck with
    | Some s -> Tgds.Chase.resume ?budget ?obs ~on_pass sigma s
    | None ->
        Relational.Term.set_null_count null0;
        Tgds.Chase.run ~policy ?budget ?obs ~on_pass sigma db
  in
  let attempts () = List.rev !log in
  (* attempt [k] runs under trigger [k] of the plan *)
  let rec go k =
    let resumed_from =
      Option.map (fun s -> s.Engine.Saturate.snap_level) !last_ck
    in
    let trig = Fault.trigger_for fault_plan ~attempt:k in
    match Fault.attempt (fun () -> Fault.with_trigger ?clock trig chase) with
    | Ok r -> if !log = [] then Completed r else Recovered (r, attempts ())
    | Error fault ->
        let retry = k <= retries in
        let backoff =
          if retry then Fault.backoff ~base_ms:backoff_ms ~max_ms:max_backoff_ms k
          else 0.
        in
        log := { attempt = k; fault; resumed_from; backoff_ms = backoff } :: !log;
        if retry then begin
          if backoff > 0. then sleep (backoff /. 1000.);
          go (k + 1)
        end
        else
          Failed
            {
              message = Printf.sprintf "all %d attempts exhausted" k;
              attempts = attempts ();
            }
  in
  match go 1 with
  | outcome -> outcome
  | exception Fault.Fatal message -> Failed { message; attempts = attempts () }
  | exception e ->
      (* the supervisor's contract: no escaped exceptions *)
      Failed { message = Printexc.to_string e; attempts = attempts () }
