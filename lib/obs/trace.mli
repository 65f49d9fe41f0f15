(** Chrome-trace ([trace_event] JSON) span export.

    Collects "X" (complete) events viewable in [chrome://tracing] or
    Perfetto.  The collector is mutex-guarded, so {!Tl_par} pool workers
    record concurrently; {!pool_wrapper} builds a {!Tl_par.wrapper} that
    spans every pool task with [tid] = worker ordinal, attributing DSE
    enumeration and fault-campaign work to pool workers.

    Timestamps come from a caller-supplied [clock] (seconds, e.g.
    [Unix.gettimeofday]); the library has no unix dependency. *)

type t

val create : unit -> t

val add : t -> ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  name:string -> ts_us:float -> dur_us:float -> unit -> unit
(** Record one complete event (timestamps in microseconds), in process
    [pid] 0. *)

val span : t -> clock:(unit -> float) -> ?cat:string -> ?tid:int ->
  ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Time a thunk and record it; the span is recorded even when the thunk
    raises (the exception is re-raised). *)

val pool_wrapper : t -> clock:(unit -> float) -> Tl_par.wrapper
(** Task observer for {!Tl_par.set_wrapper}: each pool task becomes a
    span named by the pool's label, [cat = "tl_par"], [tid] = worker
    ordinal, with the item index in [args]. *)

val length : t -> int
(** Number of spans recorded so far. *)

val to_json : t -> string
(** The [{ "traceEvents": [...] }] document, events in recording order. *)

val write_file : string -> t -> unit
