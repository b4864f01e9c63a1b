(* Host-speed calibration. The benchmark's host timings are scaled to a
   fixed reference speed, so that they follow the program and not the
   host.

   On a shared 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids) the host
   runs the same code up to 1.8x slower for stretches of seconds to
   several minutes, with no steal time visible inside the guest: the
   physical core and its caches are shared with other guests. A
   stretch can outlast a whole run, so neither the median nor the
   minimum of a run's replays stays put from run to run: over ten
   seeds, the quartiles of a workload's fastest replay lay 15-24% of
   the median apart.

   A calibration pass times four fixed kernels that use the processor
   the way the replays do: a float array stream with scattered reads
   (the LP), a hash table (Phase I's indexes), allocation and list
   sorting (the GC), and a byte loop through a lookup table (CRC-32 and
   the codec). Each kernel runs three times and keeps its fastest time;
   the pass time is the geometric mean of the four. None of it calls the
   library, so a change to the program leaves the pass time alone.

   A round is bracketed by passes, and its host timings are multiplied
   by [scale (sqrt (before *. after))]. The replays slow down less than
   the pass does: on that host, across runs and across rounds, log
   replay time moved 0.55-1.0 times as far as log pass time, 0.8
   typically, so the scale is [(nominal_s /. pass) ** 0.8]. A scaled
   timing reads as seconds at the speed at which one pass takes
   [nominal_s]. The raw seconds are printed too. *)

let now = Unix.gettimeofday

(* One pass takes 11-19 ms on the host above, depending on the
   stretch; 12 ms is a quiet stretch, so scaled timings read close to
   what that host gives when no other guest contends. *)
let nominal_s = 0.012

let elasticity = 0.8
let scale pass = (nominal_s /. pass) ** elasticity

(* The buffers live outside the OCaml heap and are made once, and the
   kernels allocate only short-lived values, so the passes leave the
   major heap and its pacing alone; they add a fixed 16 MB to the
   process's peak RSS. *)
module A1 = Bigarray.Array1

let n_floats = 1 lsl 19
let floats () = A1.create Bigarray.float64 Bigarray.c_layout n_floats
let src = floats ()
let dst = floats ()
let () = for i = 0 to n_floats - 1 do src.{i} <- float_of_int (i land 1023) done
let n_slots = 1 lsl 19
let slots = A1.create Bigarray.int Bigarray.c_layout n_slots
let n_bytes = 4 lsl 20
let bytes = A1.init Bigarray.char Bigarray.c_layout n_bytes (fun i -> Char.unsafe_chr (i land 255))

let float_stream () =
  let n = n_floats and a = src and b = dst in
  A1.fill b 1.5;
  let s = ref 0. in
  for r = 1 to 6 do
    for i = 0 to n - 1 do
      b.{i} <- (a.{i} *. 0.5) +. b.{((i * 4099) + r) land (n - 1)}
    done;
    s := !s +. b.{r}
  done;
  !s

(* Open addressing with linear probing over a fixed table. *)
let hash_table () =
  A1.fill slots 0;
  let mask = n_slots - 1 in
  let rec insert k i = if slots.{i} = 0 then slots.{i} <- k else insert k ((i + 1) land mask) in
  let rec find k i =
    let v = slots.{i} in
    if v = k then 1 else if v = 0 then 0 else find k ((i + 1) land mask)
  in
  for i = 1 to 150_000 do
    let k = (i * 7919) land 0xfffff + 1 in
    insert k ((k * 0x9E3779B1) land mask)
  done;
  let s = ref 0 in
  for i = 1 to 1_200_000 do
    let k = (i * 104729) land 0xfffff + 1 in
    s := !s + find k ((k * 0x9E3779B1) land mask)
  done;
  !s

type record = { key : int; weight : float; tag : string }

(* Short lists: nothing lives long enough to leave the minor heap. *)
let sort_records () =
  let n = ref 0 in
  for b = 1 to 75_000 do
    let l =
      List.init 8 (fun i -> { key = ((b * 8) + i) * 48271 mod 65521; weight = float_of_int i; tag = "x" })
    in
    match List.sort (fun x y -> compare x.key y.key) l with
    | r :: _ -> n := !n + r.key
    | [] -> ()
  done;
  !n

let table = Array.init 256 (fun i -> i * 0x9E3779B1 land 0xffffffff)

let byte_table () =
  let c = ref 0 in
  for i = 0 to n_bytes - 1 do
    c := (!c lsr 8) lxor table.((!c lxor Char.code bytes.{i}) land 255)
  done;
  !c

let time f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

let best f = Float.min (time f) (Float.min (time f) (time f))

(* Seconds of one calibration pass. *)
let pass () =
  let ts =
    [ best float_stream;
      best hash_table;
      best sort_records;
      best byte_table
    ]
  in
  exp (List.fold_left (fun acc t -> acc +. log t) 0. ts /. 4.)
