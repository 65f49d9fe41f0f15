(** Seeded software chaos injection over the toolchain's probe points.

    Probe sites: ["store.write"] (entry bytes may be torn, corrupted, or
    fail with [Sys_error]), ["store.read"] (reads may fail or stall),
    and ["par:<pool label>"] (every {!Tl_par} task of that pool may be
    delayed or killed, keyed by task index so injections are independent
    of the pool width).  A probe at an unarmed site — or with no plan
    armed at all, the default — costs one atomic load and does nothing.

    Whether a probe fires, and which action, is a pure function of
    (seed, site, key); {!would_fire} exposes it so gates can pick seeds
    that hit specific tasks deterministically. *)

type action =
  | Fail of string  (** raise [Sys_error] at the probe *)
  | Truncate of float  (** keep this fraction of a written payload *)
  | Corrupt  (** flip one byte of a written payload *)
  | Delay of int  (** spin this many iterations *)

type config = {
  seed : int;
  rate : float;  (** fire probability per probe, in [0, 1] *)
  sites : (string * action list) list;
      (** actions drawn uniformly per firing probe; unlisted sites never
          fire *)
}

val arm : config -> unit
(** Install the plan (replacing any armed one).  Arming any ["par:*"]
    site installs the {!Tl_par} task probe.
    @raise Invalid_argument when [rate] is outside [0, 1]. *)

val disarm : unit -> unit
(** Remove the plan and the {!Tl_par} task probe. *)

val injected : unit -> int
(** Faults fired since the last {!reset_injected} — cumulative across
    arm/disarm cycles so a multi-phase campaign can total its weather. *)

val reset_injected : unit -> unit

val draw : ?key:int -> string -> action option
(** Draw at a site.  [key] defaults to a per-site occurrence counter;
    pool probes pass the task index. Counts toward {!injected} when it
    fires. *)

val probe : ?key:int -> site:string -> unit -> unit
(** Exception/delay probe point: may raise [Sys_error] or spin;
    write-mangling actions are ignored here. *)

val mangle : ?key:int -> site:string -> string -> string
(** Write probe point: returns the bytes that actually reach the disk —
    possibly truncated or byte-flipped — or raises [Sys_error]. *)

val would_fire : seed:int -> rate:float -> site:string -> key:int -> bool
(** The pure fire decision, for seed selection in tests and gates. *)
