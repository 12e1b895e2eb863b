(** The naive re-enumerating chase; see the interface. *)

open Relational
open Relational.Term
module Chase = Tgds.Chase
module Tgd = Tgds.Tgd

type result = {
  instance : Instance.t;
  level_of : (Fact.t, int) Hashtbl.t;
  saturated : bool;
  max_level : int;
  outcome : Obs.Budget.outcome;
}

(* A trigger: TGD index + image of the body variables. *)
let trigger_key i (b : Homomorphism.binding) t =
  (i, List.map (fun x -> VarMap.find_opt x b) (VarSet.elements (Tgd.body_vars t)))

let head_witnessed t b inst =
  let init = VarMap.filter (fun x _ -> VarSet.mem x (Tgd.frontier t)) b in
  Homomorphism.exists ~init (Tgd.head t) inst

let run ?(policy = Chase.Oblivious) ?max_level ?max_facts ?budget sigma db =
  let budget =
    let bounds =
      match (max_level, max_facts) with
      | None, None -> Obs.Budget.unlimited
      | _ -> Obs.Budget.create ?max_facts ?max_levels:max_level ()
    in
    Option.fold ~none:bounds ~some:(Obs.Budget.meet bounds) budget
  in
  let sigma = Array.of_list sigma in
  let level_of = Hashtbl.create 256 in
  Instance.iter (fun f -> Hashtbl.replace level_of f 0) db;
  let fired = Hashtbl.create 256 in
  let inst = ref db and level = ref 0 and saturated = ref false in
  let violation = ref None in
  let check level =
    violation := Obs.Budget.check budget ~facts:(Hashtbl.length level_of) ~level
  in
  let fire (i, b) =
    let t = sigma.(i) in
    let body_level =
      List.fold_left
        (fun acc a ->
          let f = Fact.of_atom (Homomorphism.apply_binding b a) in
          max acc (Option.value ~default:0 (Hashtbl.find_opt level_of f)))
        0 (Tgd.body t)
    in
    let b =
      VarSet.fold
        (fun z acc -> VarMap.add z (fresh_null ()) acc)
        (Tgd.existential_vars t) b
    in
    List.iter
      (fun h ->
        let f = Fact.of_atom (Homomorphism.apply_binding b h) in
        if not (Instance.mem f !inst) then begin
          inst := Instance.add_fact f !inst;
          Hashtbl.replace level_of f (body_level + 1)
        end)
      (Tgd.head t);
    check !level
  in
  check 1;
  while (not !saturated) && !violation = None do
    (* the unfired triggers whose body maps into the current instance *)
    let pending = ref [] in
    Array.iteri
      (fun i t ->
        Homomorphism.fold_homs (Tgd.body t) !inst
          (fun b () ->
            let key = trigger_key i b t in
            if not (Hashtbl.mem fired key) then begin
              Hashtbl.replace fired key ();
              if policy = Chase.Oblivious || not (head_witnessed t b !inst) then
                pending := (i, b) :: !pending
            end)
          ())
      sigma;
    if !pending = [] then saturated := true
    else begin
      incr level;
      List.iter (fun tr -> if !violation = None then fire tr) (List.rev !pending);
      if !violation = None then check (!level + 1)
    end
  done;
  {
    instance = !inst;
    level_of;
    saturated = !saturated;
    max_level = !level;
    outcome =
      (match !violation with
      | Some v -> Obs.Budget.Partial v
      | None -> Obs.Budget.Complete);
  }

let up_to_level r l =
  Instance.filter
    (fun f -> Option.fold ~none:true ~some:(fun lv -> lv <= l) (Hashtbl.find_opt r.level_of f))
    r.instance

let facts_levels r = Hashtbl.fold (fun f l acc -> (f, l) :: acc) r.level_of []

let certain ?(max_level = 6) sigma db q tuple =
  let r = run ~max_level sigma db in
  (Ucq.entails r.instance q tuple, r.saturated)
