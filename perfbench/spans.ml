(* Spans recorded by the benchmark around its own calls into the
   library's public functions; the library itself is not instrumented.

   The pool width is pinned to 1, so every span opens and closes on the
   calling domain and spans nest strictly.  A span's self time is its
   duration minus the durations of its direct children.  With tracing
   off, [span] is a plain call. *)

open Tensorlib

let clock = Unix.gettimeofday
let enabled = ref false
let chrome = ref (Obs.Trace.create ())

(* name -> accumulated self seconds / call count *)
let self_s : (string, float) Hashtbl.t = Hashtbl.create 64
let calls : (string, int) Hashtbl.t = Hashtbl.create 64

(* free-form counts recorded at the same boundaries as the spans *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

(* child-duration accumulators of the open spans, innermost first *)
let stack : float ref list ref = ref []

(* id shared by every span of one request, design or shape *)
let current_id = ref ""

let par_tasks = Atomic.make 0
let par_busy_s = ref 0.
let par_lock = Mutex.create ()
let par_depth = Domain.DLS.new_key (fun () -> ref 0)

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let reset () =
  chrome := Obs.Trace.create ();
  Hashtbl.reset self_s;
  Hashtbl.reset calls;
  Hashtbl.reset counts;
  stack := [];
  current_id := "";
  Atomic.set par_tasks 0;
  par_busy_s := 0.

let count name n = if !enabled then add counts name (float_of_int n)
let get_count name = Option.value (Hashtbl.find_opt counts name) ~default:0.
let get_self name = Option.value (Hashtbl.find_opt self_s name) ~default:0.
let get_calls name = Option.value (Hashtbl.find_opt calls name) ~default:0

let with_id id f =
  let saved = !current_id in
  current_id := id;
  Fun.protect ~finally:(fun () -> current_id := saved) f

let span name f =
  if not !enabled then f ()
  else begin
    let children = ref 0. in
    let parent = !stack in
    stack := children :: parent;
    let t0 = clock () in
    let finish () =
      let dur = clock () -. t0 in
      stack := parent;
      (match parent with p :: _ -> p := !p +. dur | [] -> ());
      add self_s name (dur -. !children);
      Hashtbl.replace calls name (get_calls name + 1);
      Obs.Trace.add !chrome ~cat:"perfbench"
        ~args:[ ("id", !current_id) ]
        ~name ~ts_us:(t0 *. 1e6) ~dur_us:(dur *. 1e6) ()
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* Pool observer: forwards every task to the Chrome exporter and counts
   tasks and busy time.  Nested pool tasks (enumeration inside a sweep
   shard) count as tasks but only the outermost adds busy time. *)
let pool_wrapper () =
  let inner = Obs.Trace.pool_wrapper !chrome ~clock in
  { Par.wrap =
      (fun ~label ~domain ~index f ->
        let depth = Domain.DLS.get par_depth in
        incr depth;
        let t0 = clock () in
        Fun.protect
          ~finally:(fun () ->
            decr depth;
            Atomic.incr par_tasks;
            if !depth = 0 then begin
              let d = clock () -. t0 in
              Mutex.protect par_lock (fun () -> par_busy_s := !par_busy_s +. d)
            end)
          (fun () -> inner.Par.wrap ~label ~domain ~index f)) }

(* Run [f] traced under a root span named [root]; returns its result and
   wall time.  The pool observer is installed only for the duration. *)
let traced root f =
  reset ();
  enabled := true;
  Par.set_wrapper (Some (pool_wrapper ()));
  let t0 = clock () in
  Fun.protect
    ~finally:(fun () ->
      enabled := false;
      Par.set_wrapper None)
    (fun () ->
      let v = span root f in
      (v, clock () -. t0))
