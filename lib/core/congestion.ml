module Task = S3_workload.Task
module Prng = S3_util.Prng

(* [base] lazily seeds an entity's factor from the engine-maintained
   per-entity flow index (see {!Problem.view}[.load]): only entities a
   caller actually touches are materialized, so Phase I costs
   O(candidate paths) instead of O(all flows). The accessor promises
   the same accumulation order as the eager scan below, so both
   representations hold bit-identical factors. *)
type t = {
  tbl : (int, float) Hashtbl.t;
  base : (int -> float) option;
}

let factor t e =
  match Hashtbl.find_opt t.tbl e with
  | Some x -> x
  | None ->
    (match t.base with
     | None -> 0.
     | Some f ->
       let x = f e in
       Hashtbl.replace t.tbl e x;
       x)

let add_path t path lrb =
  Array.iter (fun e -> Hashtbl.replace t.tbl e (factor t e +. lrb)) path

let path_max t path = Array.fold_left (fun acc e -> max acc (factor t e)) 0. path

let of_view (v : Problem.view) =
  match v.Problem.load with
  | Some f -> { tbl = Hashtbl.create 64; base = Some f }
  | None ->
    let t = { tbl = Hashtbl.create 64; base = None } in
    List.iter
      (fun f ->
        let l = Rtf.flow_lrb v f in
        if Float.is_finite l then add_path t (Problem.route_arr v f) l)
      (Lazy.force v.Problem.flows);
    t

let select_least_congested (v : Problem.view) (task : Task.t) =
  let t = of_view v in
  let lrb =
    Rtf.lrb ~now:v.Problem.now ~deadline:task.Task.deadline ~remaining:task.Task.volume
  in
  let lrb = if Float.is_finite lrb then lrb else 0. in
  let remaining = ref (Array.to_list task.Task.sources) in
  let chosen = ref [] in
  for _ = 1 to task.Task.k do
    let scored =
      List.map
        (fun s ->
          let path =
            S3_net.Topology.route_array v.Problem.topo ~src:s ~dst:task.Task.destination
          in
          (path_max t path, s, path))
        !remaining
    in
    let best =
      List.fold_left
        (fun acc cand ->
          match acc with
          | None -> Some cand
          | Some (bc, bs, _) ->
            let c, s, _ = cand in
            if c < bc -. 1e-12 || (Float.abs (c -. bc) <= 1e-12 && s < bs) then Some cand
            else acc)
        None scored
    in
    match best with
    | None -> invalid_arg "Congestion.select_least_congested: not enough candidates"
    | Some (_, s, path) ->
      chosen := s :: !chosen;
      remaining := List.filter (fun x -> x <> s) !remaining;
      add_path t path lrb
  done;
  Array.of_list (List.rev !chosen)

let select_random g (task : Task.t) =
  Array.of_list (Prng.sample g task.Task.k (Array.to_list task.Task.sources))
