(** Whole-network design-space sweep through the persistent design store.

    A network is a list of named statements (layers).  Layers are deduped
    by canonical shape key (config fingerprint + statement fingerprint)
    before any enumeration; the unique shapes are sharded across the
    {!Tl_par} pool {e shape-major} — each worker owns whole shapes, so no
    two domains ever race on one store key — and everything inside a
    shape runs single-domain.  Results (including {!report.r_digest}) are
    deterministic and independent of the pool width.

    Both cold and warm sweeps build their reports by decoding the stored
    payload (exact hex-float codec), so a warm sweep reproduces a cold
    sweep bit-for-bit.  The store's entry files are the only record of a
    swept shape: an interrupted sweep resumes by running again against
    the same store, which serves every finished shape as a hit. *)

type point = {
  p_area : float;  (** ASIC area *)
  p_power : float;  (** mW *)
  p_perf : Tl_perf.Perf_model.result;
}

type layer = {
  l_name : string;
  l_key : string;
  l_hit : bool;  (** served from the warm store *)
  l_points : int;
  l_frontier : point list;  (** Pareto frontier on (cycles, power) *)
  l_best : point option;  (** min-cycles winner *)
  l_degraded : bool;  (** not swept (budget expiry or injected fault) *)
  l_est_cycles : float option;
      (** estimate-only fallback for degraded layers: ideal MACs/cycle on
          a fully-busy array; [None] on fully-swept layers *)
}

type report = {
  r_network : string;
  r_layers : layer list;  (** network order *)
  r_unique_shapes : int;
  r_points : int;
  r_total_cycles : float;
      (** per-layer winners, plus the estimate for degraded layers *)
  r_total_runtime_us : float;  (** fully-swept layers only *)
  r_total_area : float;
  r_total_power : float;
  r_hits : int;
  r_misses : int;
  r_hit_rate : float;  (** hits over {e completed} unique shapes *)
  r_digest : string;
      (** MD5 over completed shape payloads, unique-shape order; on a
          complete sweep this covers every shape *)
  r_complete : bool;  (** no shape degraded *)
  r_degraded_shapes : int;
}

type progress = {
  pr_done : int;
  pr_total : int;
  pr_layer : string;  (** first layer name using the finished shape *)
  pr_hit : bool;
  pr_points : int;
}

val networks : unit -> (string * (string * Tl_ir.Stmt.t) list) list
(** The named network tables ({!Tl_ir.Workloads.networks}). *)

val find : string -> (string * Tl_ir.Stmt.t) list
(** The layers of the network named [name].  @raise Failure naming the
    valid networks, with a did-you-mean ({!Tl_ir.Parse.suggest}), when
    none is. *)

val shape_key :
  ?config:Tl_perf.Perf_model.config ->
  ?per_shape_limit:int ->
  Tl_ir.Stmt.t ->
  string
(** The store key of a layer shape under a config (and optional point
    cap, which changes the evaluated set and therefore the key): a
    version tag, {!Tl_perf.Perf_model.config_fingerprint}, the limit and
    {!Tl_stt.Signature.stmt_fingerprint}.  Its text is a store format: a
    changed key orphans every entry of an existing store. *)

val evaluate_shape :
  config:Tl_perf.Perf_model.config ->
  ?per_shape_limit:int ->
  ?budget:Tl_resil.Budget.t ->
  Tl_ir.Stmt.t ->
  point list
(** Enumerate ([domains:1]) and evaluate one shape's design space;
    points that fail evaluation are dropped.  [budget] is polled per
    candidate matrix and per evaluated point; expiry raises
    {!Tl_resil.Budget.Expired}. *)

val encode_points : point list -> string
val decode_points : string -> point list option
(** Versioned exact payload codec; [None] on any malformed content. *)

val sweep :
  ?config:Tl_perf.Perf_model.config ->
  ?domains:int ->
  ?per_shape_limit:int ->
  ?progress:(progress -> unit) ->
  ?budget:Tl_resil.Budget.t ->
  store:Tl_store.Store.t ->
  name:string ->
  (string * Tl_ir.Stmt.t) list ->
  report
(** Sweep a layer list.  [progress] is invoked (serialised under a
    mutex) once per finished unique shape, from worker domains.

    Resilience:
    {ul
    {- [budget] (default unlimited) gates fresh computation only — store
       hits are served even on an expired budget.  An expired shape (or
       one killed by an injected fault) degrades to an estimate-only
       layer instead of failing the sweep; see {!report.r_complete}.
       A shape whose classification overflows is the statement's fault
       and the same on every run: after every shape has run,
       {!Tl_stt.Reuse.Overflow} fails the sweep.}
    {- A computed shape is put into [store] before its progress call,
       so rerunning an interrupted sweep against the same store serves
       the finished shapes as hits and computes the rest (and any whose
       put was dropped): its digest is bit-identical to an uninterrupted
       sweep's.}}

    The Ok/degraded pattern, the report and its digest are deterministic
    and independent of the pool width (for [Budget.of_checks] budgets,
    deterministic at [domains:1]). *)


val to_json : report -> Tl_store.Json.t
(** The report as a ["tensorlib-sweep/1"] document: the output of
    [sweep --json] and the ["report"] of a served sweep. *)
