module Task = S3_workload.Task

let lrb ~now ~deadline ~remaining =
  if remaining < 0. then invalid_arg "Rtf.lrb: negative remaining volume";
  if deadline <= now then infinity else remaining /. (deadline -. now)

let flow_lrb (v : Problem.view) (f : Problem.flow) =
  lrb ~now:v.Problem.now ~deadline:f.Problem.task.Task.deadline ~remaining:f.Problem.remaining

(* Eq. (12) given the path's bottleneck capacity; shared with Phase II,
   which reads [cap] off its own availability array. The comparisons
   are float-typed spellings of Stdlib's [max]/[min]
   ([if a >= b then a else b]), so -0. and NaN behave exactly as
   they did through the polymorphic ones. *)
let rtf_at ~now ~cap (f : Problem.flow) =
  let s = f.Problem.task.Task.arrival in
  let start = if now >= s then now else s in
  if cap <= 0. then neg_infinity
  else f.Problem.task.Task.deadline -. start -. (f.Problem.remaining /. cap)

let flow_rtf (v : Problem.view) f =
  rtf_at ~now:v.Problem.now ~cap:(Problem.flow_path_available v f) f

let task_rtf v = function
  | [] -> invalid_arg "Rtf.task_rtf: no flows"
  | flows ->
    List.fold_left
      (fun acc f ->
        let r = flow_rtf v f in
        if acc <= r then acc else r)
      infinity flows

let path_feasible (v : Problem.view) (t : Task.t) ~src ~remaining =
  let need = lrb ~now:v.Problem.now ~deadline:t.Task.deadline ~remaining in
  Float.is_finite need
  && need <= Problem.path_available v ~src ~dst:t.Task.destination +. 1e-9
