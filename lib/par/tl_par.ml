(* Domain-based work pool for the embarrassingly parallel outer loops of
   the repo: DSE sweeps, fuzz trials, benchmark sections.

   One pool per call: [d - 1] helper domains are spawned, the calling
   domain works too, and all items are pulled from a shared atomic
   counter.  Results land in a per-index slot, so the output order (and
   the exception raised, if any) is independent of scheduling — two runs
   of the same deterministic [f] produce identical ordered results. *)

let n_domains () =
  match Sys.getenv_opt "TL_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> max 1 (Domain.recommended_domain_count ()))
  | None -> max 1 (Domain.recommended_domain_count ())

(* Optional task observer: a polymorphic wrapper invoked around every
   pool task with (pool label, worker ordinal, item index).  Installed
   globally (observability tooling — the Chrome-trace exporter), read
   atomically by every worker; the wrapper itself must be domain-safe.
   [None] (the default) adds no per-task overhead beyond one atomic
   load. *)
type wrapper = {
  wrap : 'a. label:string -> domain:int -> index:int -> (unit -> 'a) -> 'a;
}

let observer : wrapper option Atomic.t = Atomic.make None

let set_wrapper w = Atomic.set observer w

(* Optional chaos probe: invoked before every pool task with the pool
   label and the item index (never the worker ordinal — probes keyed by
   index fire identically at every pool width).  It may raise, which
   counts as the task failing, or delay.  Installed by the software
   chaos harness (Tl_resil); [None] costs one atomic load per task. *)
let task_probe : (label:string -> index:int -> unit) option Atomic.t =
  Atomic.make None

let set_task_probe p = Atomic.set task_probe p

let run_task label domain index f x =
  (match Atomic.get task_probe with
  | None -> ()
  | Some p -> p ~label ~index);
  match Atomic.get observer with
  | None -> f x
  | Some w -> w.wrap ~label ~domain ~index (fun () -> f x)

(* Shared fan-out core: every task's outcome is captured per-index, so
   callers choose between fail-fast commit ([map_array]) and failure
   isolation ([try_map_array]) over the same deterministic results. *)
let run_all ?domains ?(label = "tl_par") f xs =
  let n = Array.length xs in
  let d =
    min (match domains with Some d -> max 1 d | None -> n_domains ()) n
  in
  if d <= 1 || n <= 1 then
    Array.mapi
      (fun i x ->
        match run_task label 0 i f x with
        | v -> Ok v
        | exception e -> Error e)
      xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker who () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some
              (match run_task label who i f xs.(i) with
              | v -> Ok v
              | exception e -> Error e)
      done
    in
    let helpers = List.init (d - 1) (fun h -> Domain.spawn (worker (h + 1))) in
    worker 0 ();
    List.iter Domain.join helpers;
    Array.map (function Some r -> r | None -> assert false) results
  end

let map_array ?domains ?label f xs =
  (* commit in index order: the first (lowest-index) failure is the one
     re-raised, regardless of which domain hit it *)
  Array.map
    (function Ok v -> v | Error e -> raise e)
    (run_all ?domains ?label f xs)

let try_map_array ?domains ?label f xs = run_all ?domains ?label f xs

let map ?domains ?label f xs =
  Array.to_list (map_array ?domains ?label f (Array.of_list xs))

let try_map ?domains ?label f xs =
  Array.to_list (try_map_array ?domains ?label f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* String-keyed memoisation shared across the pool.                    *)

module Cache = struct
  type stats = {
    name : string;
    hits : int;
    misses : int;
    entries : int;
    evictions : int;
  }

  type 'a t = {
    c_name : string;
    capacity : int option;
    tbl : (string, 'a) Hashtbl.t;
    lock : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
  }

  type registered = {
    r_stats : unit -> stats;
    r_clear : unit -> unit;
  }

  let registry : registered list Atomic.t = Atomic.make []

  let register_entry r =
    let rec push () =
      let old = Atomic.get registry in
      if not (Atomic.compare_and_set registry old (r :: old)) then push ()
    in
    push ()

  let stats c =
    { name = c.c_name;
      hits = Atomic.get c.hits;
      misses = Atomic.get c.misses;
      entries = Hashtbl.length c.tbl;
      evictions = Atomic.get c.evictions }

  let clear c =
    Mutex.lock c.lock;
    Hashtbl.reset c.tbl;
    Atomic.set c.hits 0;
    Atomic.set c.misses 0;
    Atomic.set c.evictions 0;
    Mutex.unlock c.lock

  let create ?capacity ~name () =
    let c =
      { c_name = name;
        capacity;
        tbl = Hashtbl.create 256;
        lock = Mutex.create ();
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        evictions = Atomic.make 0 }
    in
    register_entry
      { r_stats = (fun () -> stats c); r_clear = (fun () -> clear c) };
    c

  let find_or_add c key f =
    Mutex.lock c.lock;
    match Hashtbl.find_opt c.tbl key with
    | Some v ->
      Mutex.unlock c.lock;
      Atomic.incr c.hits;
      v
    | None ->
      Mutex.unlock c.lock;
      Atomic.incr c.misses;
      (* compute outside the lock: [f] can be expensive and may itself
         consult other caches.  Two domains racing on the same key both
         compute the same value (f is deterministic); the first insertion
         wins, so the merged cache is deterministic. *)
      let v = f () in
      Mutex.lock c.lock;
      let kept =
        match Hashtbl.find_opt c.tbl key with
        | Some v0 -> v0
        | None ->
          (* a full bounded cache starts over: dropping every entry keeps
             the policy free of recency bookkeeping on the hit path *)
          (match c.capacity with
           | Some cap when Hashtbl.length c.tbl >= cap ->
             ignore (Atomic.fetch_and_add c.evictions (Hashtbl.length c.tbl));
             Hashtbl.reset c.tbl
           | Some _ | None -> ());
          Hashtbl.add c.tbl key v;
          v
      in
      Mutex.unlock c.lock;
      kept

  let all_stats () =
    List.rev_map (fun r -> r.r_stats ()) (Atomic.get registry)

  let clear_all () = List.iter (fun r -> r.r_clear ()) (Atomic.get registry)
end

let mapi ?domains ?label f xs =
  Array.to_list
    (map_array ?domains ?label
       (fun (i, x) -> f i x)
       (Array.of_list (List.mapi (fun i x -> (i, x)) xs)))
