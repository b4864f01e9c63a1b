(* In-memory span recorder for the traced runs. A span is (name, start,
   end, parent span, run id); spans nest strictly because everything
   runs on one domain, so a stack of open spans gives each new span its
   parent. Nothing here runs in an untraced replay. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable run : int array;
  mutable stack : int list;
  mutable run_id : int;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let create () =
  let cap = 1024 in
  { n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    run = Array.make cap 0;
    stack = [];
    run_id = 0;
    names = Hashtbl.create 16;
    name_of = [||]
  }

let now = Unix.gettimeofday

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent (-1);
  t.run <- ext t.run 0

let set_run t id = t.run_id <- id

(* Open a span now, as a child of the innermost open span. *)
let open_ t name =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.run.(i) <- t.run_id;
  t.stack <- i :: t.stack;
  t.start.(i) <- now ()

let close t =
  match t.stack with
  | i :: rest ->
    t.stop.(i) <- now ();
    t.stack <- rest
  | [] -> invalid_arg "Span.close: no open span"

let with_span t name f =
  open_ t name;
  match f () with
  | v ->
    close t;
    v
  | exception e ->
    close t;
    raise e

(* Close the innermost span and open a sibling of the same name right
   away: event spans tile an engine run without gaps. *)
let rotate t name =
  close t;
  open_ t name

type layer = { calls : int; self_s : float; durations : float array }

(* Per-name aggregates over the spans of one run id. A span's self time
   is its duration minus the durations of its direct children; children
   never overlap because spans nest. *)
let layers t ~run =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    if t.run.(i) = run && t.parent.(i) >= 0 then
      let p = t.parent.(i) in
      child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    if t.run.(i) = run then begin
      let d = t.stop.(i) -. t.start.(i) in
      let calls, self, ds = Option.value (Hashtbl.find_opt acc t.name.(i)) ~default:(0, 0., []) in
      Hashtbl.replace acc t.name.(i) (calls + 1, self +. (d -. child.(i)), d :: ds)
    end
  done;
  fun name ->
    match Hashtbl.find_opt acc (intern t name) with
    | None -> { calls = 0; self_s = 0.; durations = [||] }
    | Some (calls, self_s, ds) -> { calls; self_s; durations = Array.of_list (List.rev ds) }

(* Seconds of one run covered by its top-level spans. *)
let covered t ~run =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    if t.run.(i) = run && t.parent.(i) < 0 then s := !s +. (t.stop.(i) -. t.start.(i))
  done;
  !s

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "run\tspan\tparent\tname\tstart_s\tend_s\n";
      let t0 = if t.n > 0 then t.start.(0) else 0. in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" t.run.(i) i t.parent.(i)
          t.name_of.(t.name.(i)) (t.start.(i) -. t0) (t.stop.(i) -. t0)
      done)
