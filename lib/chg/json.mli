(** A minimal JSON representation, printer and parser — enough to
    serialize class hierarchies and lookup tables without external
    dependencies (the container environment is sealed; see DESIGN.md).

    Supports null, booleans, integers, strings (with the standard escape
    sequences), arrays and objects.  Floats are deliberately not
    supported: nothing in a class hierarchy needs them and dropping them
    keeps round-trips exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty j] serializes.  [pretty] (default false) adds
    newlines and two-space indentation. *)
val to_string : ?pretty:bool -> t -> string

(** [to_buffer buf j] appends the compact encoding of [j] to [buf] —
    the bytes [to_string j] would return, without the intermediate
    string. *)
val to_buffer : Buffer.t -> t -> unit

(** [of_string s] parses.  Rejects trailing garbage, unterminated
    strings, floats, [\u] escapes other than exactly four hex digits
    naming an ASCII code, and other malformed input with a message and
    byte offset. *)
val of_string : string -> (t, string) result

(** Accessors returning [Error] with a path-aware message. *)

val member : string -> t -> (t, string) result
val to_list : t -> (t list, string) result
val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_bool : t -> (bool, string) result
