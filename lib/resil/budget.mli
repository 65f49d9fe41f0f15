(** Cooperative cancellation budgets for the DSE / serving stack.

    A budget is polled ({!check} / {!expired}) between units of work
    inside the expensive loops — matrix enumeration, per-point
    evaluation, whole-network shards.  Expiry is cooperative: a unit in
    flight always completes, so catching {!Expired} leaves a consistent
    prefix of the work behind (the sweep turns it into a typed partial
    result rather than dying).

    The default {!unlimited} budget polls to [false] with one pattern
    match, so budget-threaded code costs nothing when no deadline was
    requested. *)

exception Expired of string
(** Raised by {!check}; the payload is the budget's label. *)

type t

val unlimited : t

val of_seconds : ?clock:(unit -> float) -> ?label:string -> float -> t
(** Wall-clock deadline [clock () + seconds].  The clock is injectable
    so tests never touch real time (default [Unix.gettimeofday]).
    @raise Invalid_argument on a negative duration. *)

val of_checks : ?label:string -> int -> t
(** Deterministic unit budget: every {!expired} / {!check} poll consumes
    one unit; the budget expires once [n] units are gone.  At pool width
    1 the cut point is bit-reproducible — no wall clock involved.
    @raise Invalid_argument on a negative count. *)

val expired : t -> bool
(** Poll the budget.  Consumes one unit of a check budget. *)

val check : t -> unit
(** {!expired}, raising {!Expired} when the budget is gone. *)

val is_unlimited : t -> bool

val remaining_s : t -> float
(** Seconds left on a deadline, units left on a check budget,
    [infinity] for {!unlimited}; never negative. *)
