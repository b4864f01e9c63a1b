(* The dense Garg–Könemann packing oracle: the original O(n·m)-per-round
   implementation of S3_lp.Packing, kept verbatim (plus the finite-data
   guard) as the equivalence baseline test_packing.ml replays the
   sparse production solver against. *)

let finite_nonneg v = Float.is_finite v && v >= 0.

let reference_maximize ~eps ~obj ~rows ~rhs =
  if eps <= 0. || eps >= 1. then invalid_arg "Packing.maximize: eps out of (0,1)";
  let n = Array.length obj in
  let m = Array.length rows in
  if Array.length rhs <> m then invalid_arg "Packing.maximize: rhs length";
  Array.iter
    (fun r -> if Array.length r <> n then invalid_arg "Packing.maximize: row length")
    rows;
  let ok a = Array.for_all finite_nonneg a in
  if not (ok obj && ok rhs && Array.for_all ok rows) then Error `Not_packing
  else begin
    (* Variables forced to zero: those hit by a zero-capacity row. *)
    let frozen = Array.make n false in
    for i = 0 to m - 1 do
      if rhs.(i) <= 0. then
        for j = 0 to n - 1 do
          if rows.(i).(j) > 0. then frozen.(j) <- true
        done
    done;
    (* A live variable with positive objective but no constraint at all
       makes the LP unbounded. *)
    let unbounded = ref false in
    for j = 0 to n - 1 do
      if (not frozen.(j)) && obj.(j) > 0. then begin
        let constrained = ref false in
        for i = 0 to m - 1 do
          if rhs.(i) > 0. && rows.(i).(j) > 0. then constrained := true
        done;
        if not !constrained then unbounded := true
      end
    done;
    if !unbounded then Error `Unbounded
    else begin
      let live_rows = Array.init m (fun i -> i) |> Array.to_list
                      |> List.filter (fun i -> rhs.(i) > 0.) in
      let x = Array.make n 0. in
      (match live_rows with
       | [] -> ()
       | _ ->
         let mf = float_of_int (List.length live_rows) in
         let delta = (1. +. eps) *. (((1. +. eps) *. mf) ** (-1. /. eps)) in
         let len = Array.make m 0. in
         List.iter (fun i -> len.(i) <- delta /. rhs.(i)) live_rows;
         let total_weight () =
           List.fold_left (fun acc i -> acc +. (len.(i) *. rhs.(i))) 0. live_rows
         in
         let column_length j =
           List.fold_left (fun acc i -> acc +. (rows.(i).(j) *. len.(i))) 0. live_rows
         in
         let max_rounds = 10_000 * (n + m) in
         let rounds = ref 0 in
         while total_weight () < 1. && !rounds < max_rounds do
           incr rounds;
           (* Best bang-per-length column. *)
           let best = ref (-1) and best_ratio = ref 0. in
           for j = 0 to n - 1 do
             if (not frozen.(j)) && obj.(j) > 0. then begin
               let l = column_length j in
               if l > 0. then begin
                 let ratio = obj.(j) /. l in
                 if ratio > !best_ratio then begin
                   best := j;
                   best_ratio := ratio
                 end
               end
             end
           done;
           if !best < 0 then rounds := max_rounds
           else begin
             let j = !best in
             (* Largest step before some live constraint saturates. *)
             let sigma =
               List.fold_left
                 (fun acc i ->
                   if rows.(i).(j) > 0. then min acc (rhs.(i) /. rows.(i).(j))
                   else acc)
                 infinity live_rows
             in
             x.(j) <- x.(j) +. sigma;
             List.iter
               (fun i ->
                 if rows.(i).(j) > 0. then
                   len.(i) <- len.(i) *. (1. +. (eps *. sigma *. rows.(i).(j) /. rhs.(i))))
               live_rows
           end
         done;
         let scale = log ((1. +. eps) /. delta) /. log (1. +. eps) in
         if scale > 0. then Array.iteri (fun j v -> x.(j) <- v /. scale) x);
      (* Exact feasibility repair: shrink uniformly to meet the tightest
         constraint, absorbing both the analysis slack and rounding. *)
      let worst = ref 1. in
      for i = 0 to m - 1 do
        if rhs.(i) > 0. then begin
          let lhs = ref 0. in
          for j = 0 to n - 1 do
            lhs := !lhs +. (rows.(i).(j) *. x.(j))
          done;
          if !lhs > rhs.(i) then worst := max !worst (!lhs /. rhs.(i))
        end
      done;
      if !worst > 1. then Array.iteri (fun j v -> x.(j) <- v /. !worst) x;
      Ok x
    end
  end
