(** Domain-based work pool (OCaml 5 [Domain]s).

    Fans a list of independent items over [domains] workers pulling from a
    shared atomic counter.  Results are returned {b in input order}, and
    the first (lowest-index) exception is re-raised, so for a
    deterministic [f] the observable behaviour is identical to [List.map]
    — only faster.  With [domains = 1] (or a singleton input) no domain is
    spawned at all: plain sequential [map].

    Workers run genuinely concurrently: [f] must not touch non-atomic
    shared mutable state.  Netlist elaboration is safe ({!Tl_hw.Signal}
    id counters are atomic), as are the STT / performance / cost models,
    which share nothing. *)

val n_domains : unit -> int
(** Pool width used when [?domains] is omitted:
    [Domain.recommended_domain_count ()], overridable with the
    [TL_DOMAINS] environment variable (clamped to at least 1). *)

val map : ?domains:int -> ?label:string -> ('a -> 'b) -> 'a list -> 'b list
val mapi : ?domains:int -> ?label:string -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** {1 Failure isolation}

    [map] is fail-fast: the first (lowest-index) task exception is
    re-raised and the whole fan-out is lost.  [try_map] is the
    crash-containment variant — a task exception poisons only its own
    slot.  Every task still runs, results stay in input order, and for a
    deterministic [f] the [Ok]/[Error] pattern is identical at every
    pool width, so degraded sweeps report reproducibly. *)

val try_map :
  ?domains:int -> ?label:string -> ('a -> 'b) -> 'a list -> ('b, exn) result list

val set_task_probe : (label:string -> index:int -> unit) option -> unit
(** Install (or remove) the global chaos probe, invoked before every
    pool task with the pool's [label] and the item [index] — never the
    worker ordinal, so index-keyed probes fire identically at every pool
    width.  A probe that raises makes that task fail; installed by
    [Tl_resil.Chaos], [None] (default) costs one atomic load per task. *)

(** {1 Task observer}

    Observability hook: when installed, the wrapper is invoked around
    {e every} pool task — including the sequential [domains = 1] fast
    path — with the pool's [label], the worker ordinal [domain]
    (0 = the calling domain) and the item [index].  The span exporter in
    [Tl_obs.Trace] uses it to attribute DSE / fault-campaign work to
    pool workers.  The wrapper runs concurrently on all workers and must
    be domain-safe; it must call the thunk exactly once and return its
    value. *)

type wrapper = {
  wrap : 'a. label:string -> domain:int -> index:int -> (unit -> 'a) -> 'a;
}

val set_wrapper : wrapper option -> unit
(** Install (or, with [None], remove) the global task observer. *)

(** String-keyed memoisation safe to share across the pool.

    A cache is a mutex-guarded hash table with atomic hit/miss counters.
    [find_or_add] computes misses {e outside} the lock and keeps the
    {b first} insertion when two domains race on the same key, so for a
    deterministic [f] every returned value (and, in an unbounded cache,
    the contents) is independent of scheduling.  Every cache registers
    itself at [create] so consumers (the benchmark gate) can report or
    reset them all. *)
module Cache : sig
  type 'a t

  type stats = {
    name : string;
    hits : int;
    misses : int;
    entries : int;
    evictions : int;
        (** entries dropped by a capacity policy (a cache created with
            [~capacity]); always [0] for unbounded caches and for the
            persistent design store, which never drops an entry *)
  }

  val create : ?capacity:int -> name:string -> unit -> 'a t
  (** Unbounded by default.  With [~capacity], inserting into a full
      cache first drops every entry (counted in [evictions]), so it never
      holds more than [capacity] entries: for caches keyed on client
      input in a long-running process. *)

  val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
  val stats : 'a t -> stats
  val clear : 'a t -> unit

  val all_stats : unit -> stats list
  (** Stats of every cache ever created, in creation order. *)

  val clear_all : unit -> unit
end
