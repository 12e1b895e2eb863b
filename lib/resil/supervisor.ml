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

let run ?(policy = Tgds.Chase.Oblivious) ?max_level ?budget
    ?(checkpoint_every = 1) ?checkpoint_path ?resume_from ?(retries = 2)
    ?(backoff_ms = 50.) ?(max_backoff_ms = 1000.) ?(sleep = Unix.sleepf) ?clock
    ?(fault_plan = Fault.none) ?obs sigma facts =
  (* Restart-from-scratch resets the null supply to where this run found
     it, so every attempt invents the same null ids an uninterrupted run
     would (resume does the same from its snapshot). *)
  let null0 = Relational.Term.null_count () in
  let last_ck : Checkpoint.t option ref = ref resume_from in
  let ck_every = max 1 checkpoint_every in
  (* snapshots only where a retry or the checkpoint file can read them *)
  let on_pass =
    if retries < 1 && checkpoint_path = None then None
    else
      Some
        (fun ~level ~saturated take ->
          if saturated || level mod ck_every = 0 then begin
            let s = take () in
            last_ck := Some s;
            Option.iter (fun p -> Checkpoint.save p s) checkpoint_path
          end)
  in
  let chase () =
    match !last_ck with
    | Some s -> Tgds.Chase.resume ?max_level ?budget ?obs ?on_pass sigma s
    | None ->
        Relational.Term.set_null_count null0;
        Tgds.Chase.run_store ~policy ?max_level ?budget ?obs ?on_pass sigma
          (Engine.Index.of_facts facts)
  in
  let log =
    List.map (fun (attempt, (resumed_from, fault), backoff_ms) ->
        { attempt; fault; resumed_from; backoff_ms })
  in
  Fault.arm_seq ?clock fault_plan;
  let retried =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Fault.retry ~attempts:(retries + 1) ~base_ms:backoff_ms
          ~max_ms:max_backoff_ms ~sleep (fun _ ->
            let resumed_from =
              Option.map (fun s -> s.Engine.Saturate.snap_level) !last_ck
            in
            Result.map_error
              (fun fault -> (resumed_from, fault))
              (Fault.attempt chase)))
  in
  match retried with
  | Ok (r, []) -> Completed r
  | Ok (r, failures) -> Recovered (r, log failures)
  | Error failures ->
      let attempts = log failures in
      Failed
        {
          message =
            Printf.sprintf "all %d attempts exhausted" (List.length attempts);
          attempts;
        }
