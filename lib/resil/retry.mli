(** Seeded retry-with-backoff for transient (I/O-weather) failures.

    Delays are exponential with deterministic jitter: the k-th delay for
    a given (seed, label) pair is a pure function, so a retried campaign
    replays bit-identically.  The sleep is injectable; tests pass a
    recording no-op and never depend on the wall clock. *)

type policy = {
  attempts : int;  (** total attempts including the first; [1] = no retry *)
  base_delay_s : float;  (** first backoff delay *)
  multiplier : float;  (** delay growth per attempt *)
  jitter : float;  (** fraction of each delay drawn uniformly in [1-j, 1] *)
  sleep : float -> unit;  (** injectable; [Unix.sleepf] in production *)
  retry_on : exn -> bool;  (** which exceptions are transient *)
}

val default : policy
(** 3 attempts, 1 ms base delay x4 per attempt, 50 % jitter,
    [Unix.sleepf], retrying the transient exceptions disk and network
    weather raise ([Sys_error], [Unix.Unix_error]), not logic bugs. *)

val with_retry : ?policy:policy -> ?seed:int -> label:string -> (unit -> 'a) -> 'a
(** Run [f], re-attempting transient failures up to [policy.attempts]
    total tries with seeded backoff between them.  Non-retryable
    exceptions propagate immediately; the final transient failure is
    re-raised after counting a give-up. *)

val with_retry_opt :
  ?policy:policy -> ?seed:int -> label:string -> (unit -> 'a) -> 'a option
(** {!with_retry} that degrades an exhausted transient failure to
    [None] instead of re-raising (non-retryable exceptions still
    propagate) — the shape store I/O wants: a persistently failing read
    is a miss, not a crash. *)

val delay_s : policy -> seed:int -> label:string -> int -> float
(** The deterministic k-th backoff delay (exposed for tests). *)

val retries : unit -> int
(** Re-attempts made since the last {!reset_counters} (global). *)

val giveups : unit -> int
(** Transient failures that exhausted their attempts (global). *)

val reset_counters : unit -> unit
