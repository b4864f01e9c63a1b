(** The grammar shared by the comma-separated [KEY=VALUE] specs of the
    CLI ([--watchdog], [--retry], [--detect]) and the round-trip float
    printer their [to_string] functions (and the fault plan's) use. *)

val float_rt : float -> string
(** Shortest decimal form that parses back to the same float, so a
    printed spec replays exactly. *)

type 'c key
(** One settable key of a config of type ['c]. *)

val float : string -> ('c -> float -> 'c) -> 'c key
(** [float name set]: the value must parse as a float. *)

val int : string -> ('c -> int -> 'c) -> 'c key
val bool : string -> ('c -> bool -> 'c) -> 'c key

val parse :
  what:string -> default:'c -> keys:'c key list -> finish:('c -> 'c) -> string ->
  ('c, string) result
(** [parse ~what ~default ~keys ~finish s] reads [s] as comma-separated
    items, blanks skipped. Each item is [KEY=VALUE] (keys are
    case-insensitive, and a hyphen in a key may be written [_]) or
    [default], which resets everything set so far. Starting from
    [default], items apply left to right; [finish] validates the
    result, its [Invalid_argument] message becoming the error as is.
    Every other error is one line prefixed by [what]. *)
