(** Minimal JSON values: the [tensorlib serve] request/response protocol
    (one object per line) and the sweep-report parsing done by the gate
    scripts.  The parser never raises — malformed input is [Error _]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON document (trailing garbage is an error). *)

val to_string : t -> string
(** Render on one line (no newlines are ever emitted), suitable for a
    line-oriented protocol.  Non-finite numbers render as [null]. *)

val output_with_text : out_channel -> (string * t) list -> string * string ->
  unit
(** [output_with_text oc kvs (key, text)] writes [to_string (Obj (kvs @
    [ (key, v) ]))] to [oc], where [text = to_string v]: a document
    rendered once and kept as text is embedded without being parsed,
    rendered or copied into a new string. *)

val member : string -> t -> t option
(** Object field lookup; [None] for non-objects and missing keys. *)

val string_opt : t -> string option
val int_opt : t -> int option

val mem_string : t -> string -> string option
val mem_number : t -> string -> float option
val mem_int : t -> string -> int option
