(* Seeded software chaos injection.

   The toolchain carries a handful of named probe points — store entry
   writes ("store.write"), store entry reads ("store.read"), and every
   Tl_par pool task ("par:<pool label>").  When a chaos plan is armed,
   each probe draws deterministically from the plan: whether to fire and
   which action, as a pure function of (seed, site, key).  Pool-task
   probes are keyed by the task *index*, so the same faults hit the same
   tasks at every pool width — the determinism the chaos gates assert.
   Store probes default to a per-site occurrence counter (concurrent
   writers make the counter assignment racy, which is fine: the store
   assertions are "no crash, degrade to miss", not replay).

   Disarmed (the default), every probe is one atomic load. *)

type action =
  | Fail of string  (* raise Sys_error at the probe *)
  | Truncate of float  (* keep this fraction of a written payload *)
  | Corrupt  (* flip one byte of a written payload *)
  | Delay of int  (* spin this many iterations *)

type config = {
  seed : int;
  rate : float;  (* fire probability per probe, in [0, 1] *)
  sites : (string * action list) list;  (* probes not listed never fire *)
}

type state = {
  cfg : config;
  counters : (string, int Atomic.t) Hashtbl.t;  (* default keys *)
  counters_lock : Mutex.t;
}

let armed_state : state option Atomic.t = Atomic.make None
let injected_ctr = Atomic.make 0

let injected () = Atomic.get injected_ctr
let reset_injected () = Atomic.set injected_ctr 0

(* Pure fire/choose function, exposed so harnesses can pick seeds that
   hit (or spare) specific task indices. *)
let draw_pure ~seed ~rate ~site ~key actions =
  let st = Random.State.make [| seed; Hashtbl.hash site; key |] in
  if Random.State.float st 1.0 >= rate then None
  else
    match actions with
    | [] -> None
    | _ -> Some (List.nth actions (Random.State.int st (List.length actions)))

let would_fire ~seed ~rate ~site ~key =
  draw_pure ~seed ~rate ~site ~key [ Fail "probe" ] <> None

let next_key st site =
  Mutex.lock st.counters_lock;
  let ctr =
    match Hashtbl.find_opt st.counters site with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add st.counters site c;
      c
  in
  Mutex.unlock st.counters_lock;
  Atomic.fetch_and_add ctr 1

let draw ?key site =
  match Atomic.get armed_state with
  | None -> None
  | Some st -> (
    match List.assoc_opt site st.cfg.sites with
    | None | Some [] -> None
    | Some actions -> (
      let key = match key with Some k -> k | None -> next_key st site in
      match
        draw_pure ~seed:st.cfg.seed ~rate:st.cfg.rate ~site ~key actions
      with
      | None -> None
      | Some a ->
        Atomic.incr injected_ctr;
        Some a))

let spin n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity n)
  done

(* Exception / delay probe: write-mangling actions are meaningless here
   and ignored. *)
let probe ?key ~site () =
  match draw ?key site with
  | None | Some (Truncate _) | Some Corrupt -> ()
  | Some (Fail msg) -> raise (Sys_error (Printf.sprintf "chaos:%s: %s" site msg))
  | Some (Delay n) -> spin n

(* Payload-mangling probe for write paths: returns the (possibly torn or
   corrupted) bytes that actually reach the disk. *)
let mangle ?key ~site content =
  match draw ?key site with
  | None -> content
  | Some (Fail msg) -> raise (Sys_error (Printf.sprintf "chaos:%s: %s" site msg))
  | Some (Delay n) ->
    spin n;
    content
  | Some (Truncate frac) ->
    let n = String.length content in
    let keep =
      max 0 (min (n - 1) (int_of_float (frac *. float_of_int n)))
    in
    if n = 0 then content else String.sub content 0 keep
  | Some Corrupt ->
    let n = String.length content in
    if n = 0 then content
    else
      let pos = abs (Hashtbl.hash (site, Option.value key ~default:0, n)) mod n in
      let b = Bytes.of_string content in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Bytes.to_string b

let par_probe ~label ~index =
  probe ~key:index ~site:("par:" ^ label) ()

let arm cfg =
  if cfg.rate < 0. || cfg.rate > 1. then invalid_arg "Chaos.arm: rate";
  Atomic.set armed_state
    (Some
       {
         cfg;
         counters = Hashtbl.create 8;
         counters_lock = Mutex.create ();
       });
  (* pool-task probes fire through Tl_par's hook, keyed by task index so
     the injected faults are independent of the pool width *)
  if List.exists (fun (s, _) -> String.length s > 4 && String.sub s 0 4 = "par:") cfg.sites
  then Tl_par.set_task_probe (Some par_probe)

let disarm () =
  Atomic.set armed_state None;
  Tl_par.set_task_probe None
