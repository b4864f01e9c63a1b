(* %g keeps only 6 significant digits and loses precision on
   round-trip; %.15g covers almost every value humans write and the
   %.17g fallback is exact for every float. *)
let float_rt f =
  let s = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

type 'c key = {
  name : string;
  set : 'c -> string -> ('c, string) result;
}

let typed what conv name set =
  { name;
    set =
      (fun c value ->
        match conv value with
        | Some x -> Ok (set c x)
        | None -> Error (Printf.sprintf "%s: %S is not %s" name value what))
  }

let float name set = typed "a number" float_of_string_opt name set
let int name set = typed "an integer" int_of_string_opt name set

let bool name set =
  typed "a boolean" (fun v -> bool_of_string_opt (String.lowercase_ascii v)) name set

(* "a, b or c" *)
let alternatives names =
  match List.rev names with
  | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat ", " names

let parse ~what ~default ~keys ~finish s =
  let err m = Error (what ^ " " ^ m) in
  let names = List.map (fun k -> k.name) keys in
  let items =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun item -> item <> "")
  in
  let rec go c = function
    | [] -> ( match finish c with c -> Ok c | exception Invalid_argument m -> Error m)
    | "default" :: rest -> go default rest
    | item :: rest -> (
      match String.index_opt item '=' with
      | None ->
        err
          (Printf.sprintf "%S: expected KEY=VALUE with KEY one of %s" item
             (String.concat ", " names))
      | Some eq -> (
        let key = String.lowercase_ascii (String.trim (String.sub item 0 eq)) in
        let value = String.trim (String.sub item (eq + 1) (String.length item - eq - 1)) in
        (* KEY-NAME may also be spelled KEY_NAME. *)
        let canonical = String.map (function '_' -> '-' | ch -> ch) key in
        match List.find_opt (fun k -> String.equal k.name canonical) keys with
        | None ->
          err
            (Printf.sprintf "%S: unknown key %S (expected %s)" item key (alternatives names))
        | Some k -> ( match k.set c value with Ok c -> go c rest | Error m -> err m)))
  in
  go default items
