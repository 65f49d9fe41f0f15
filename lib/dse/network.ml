(* Whole-network design-space sweep through the persistent design store.

   A network is a list of named statements (layers).  Layers are deduped
   by a canonical shape key — config fingerprint + statement fingerprint
   — before any enumeration happens, and the {e unique} shapes are
   sharded across the [Tl_par] pool shape-major: each worker owns whole
   shapes, so no two domains ever race on one store key.  Inside a
   worker everything runs with [domains:1] (no nested pools), which
   together with the deterministic enumeration order makes the sweep's
   results — including the roll-up digest — independent of the pool
   width.

   Per unique shape the full design space is enumerated, every point
   evaluated (performance + ASIC cost), and the evaluated set serialized
   into one store payload with exact hex-float encoding.  Both the cold
   and the warm path then {e decode the payload} to build the report, so
   a warm sweep reproduces a cold sweep bit-for-bit by construction. *)

module Perf = Tl_perf.Perf_model
module Asic = Tl_cost.Asic
module Store = Tl_store.Store

type point = {
  p_area : float;  (** um^2, ASIC cost model *)
  p_power : float;  (** mW *)
  p_perf : Perf.result;
}

type layer = {
  l_name : string;
  l_key : string;  (** store key of the layer's shape *)
  l_hit : bool;  (** served from the warm store *)
  l_points : int;  (** evaluable design points *)
  l_frontier : point list;  (** Pareto frontier on (cycles, power) *)
  l_best : point option;  (** min-cycles winner; [None] if no point *)
  l_degraded : bool;  (** shape not swept (budget/fault); estimate only *)
  l_est_cycles : float option;  (** fallback estimate for degraded layers *)
}

type report = {
  r_network : string;
  r_layers : layer list;  (** in network order *)
  r_unique_shapes : int;
  r_points : int;  (** evaluable points summed over unique shapes *)
  r_total_cycles : float;  (** sum of per-layer winners *)
  r_total_runtime_us : float;
  r_total_area : float;  (** sum of per-layer winner areas *)
  r_total_power : float;  (** sum of per-layer winner powers *)
  r_hits : int;  (** unique shapes served from the store *)
  r_misses : int;
  r_hit_rate : float;
  r_digest : string;  (** MD5 over all shape payloads, shape order *)
  r_complete : bool;  (** every unique shape fully swept *)
  r_degraded_shapes : int;  (** unique shapes answered estimate-only *)
}

type progress = {
  pr_done : int;  (** unique shapes finished so far *)
  pr_total : int;
  pr_layer : string;  (** first layer name using the shape *)
  pr_hit : bool;
  pr_points : int;
}

let networks () = Tl_ir.Workloads.networks ()

let find name =
  match List.assoc_opt name (networks ()) with
  | Some layers -> layers
  | None ->
    let names = List.map fst (networks ()) in
    failwith
      (Printf.sprintf "unknown network %S; valid names: %s%s" name
         (String.concat ", " names)
         (Tl_ir.Parse.suggest ~valid:names name))

(* ------------------------------------------------------------------ *)
(* Shape keys and payload codec. *)

let shape_key ?(config = Perf.default_config) ?per_shape_limit stmt =
  let limit =
    match per_shape_limit with None -> "all" | Some n -> string_of_int n
  in
  Printf.sprintf "tlnet/1|%s|limit=%s|%s"
    (Perf.config_fingerprint config)
    limit
    (Tl_stt.Signature.stmt_fingerprint stmt)

let payload_magic = "tlnetpts/1"

let encode_points pts =
  let buf = Buffer.create (List.length pts * 256) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d\n" payload_magic (List.length pts));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%h\t%h\t%s\n" p.p_area p.p_power
           (Perf.result_to_string p.p_perf)))
    pts;
  Buffer.contents buf

let decode_points payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some nl -> (
    match String.split_on_char ' ' (String.sub payload 0 nl) with
    | [ m; count ] when m = payload_magic -> (
      match int_of_string_opt count with
      | None -> None
      | Some count ->
        let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
        let lines =
          String.split_on_char '\n' body
          |> List.filter (fun l -> l <> "")
        in
        if List.length lines <> count then None
        else
          let pts =
            List.filter_map
              (fun line ->
                match String.index_opt line '\t' with
                | None -> None
                | Some t1 -> (
                  match String.index_from_opt line (t1 + 1) '\t' with
                  | None -> None
                  | Some t2 -> (
                    let area = String.sub line 0 t1 in
                    let power = String.sub line (t1 + 1) (t2 - t1 - 1) in
                    let rest =
                      String.sub line (t2 + 1) (String.length line - t2 - 1)
                    in
                    match
                      ( float_of_string_opt area,
                        float_of_string_opt power,
                        Perf.result_of_string rest )
                    with
                    | Some p_area, Some p_power, Some p_perf ->
                      Some { p_area; p_power; p_perf }
                    | _ -> None)))
              lines
          in
          if List.length pts = count then Some pts else None)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Evaluation of one unique shape (always single-domain: the sweep
   parallelises across shapes, never inside one).  The store keeps the
   whole shape. *)

let evaluate_shape ~config ?per_shape_limit
    ?(budget = Tl_resil.Budget.unlimited) stmt =
  let pts = Enumerate.design_space ~domains:1 ~budget stmt in
  let pts =
    match per_shape_limit with
    | None -> pts
    | Some n -> List.filteri (fun i _ -> i < n) pts
  in
  List.filter_map
    (fun (p : Enumerate.point) ->
      Tl_resil.Budget.check budget;
      match Perf.evaluate ~config p.Enumerate.design with
      | exception Invalid_argument _ -> None
      | perf ->
        let asic =
          Asic.evaluate ~rows:config.Perf.rows ~cols:config.Perf.cols
            p.Enumerate.design
        in
        Some
          {
            p_area = asic.Asic.area;
            p_power = asic.Asic.power_mw;
            p_perf = perf;
          })
    pts

(* ------------------------------------------------------------------ *)

let frontier_of pts =
  Enumerate.pareto_min (fun p -> (p.p_perf.Perf.cycles, p.p_power)) pts

let best_of pts =
  List.fold_left
    (fun acc p ->
      match acc with
      | None -> Some p
      | Some b ->
        if p.p_perf.Perf.cycles < b.p_perf.Perf.cycles then Some p else acc)
    None pts

(* O(1) fallback when a shape could not be swept: ideal MACs/cycle on a
   fully-busy [rows x cols] array.  Deliberately design-agnostic — it
   needs no enumeration, no evaluation, and no store access. *)
let estimate_cycles ~config stmt =
  let pes = float_of_int (config.Perf.rows * config.Perf.cols) in
  float_of_int (Tl_ir.Stmt.domain_size stmt) /. Float.max 1. pes

let sweep ?(config = Perf.default_config) ?domains ?per_shape_limit ?progress
    ?(budget = Tl_resil.Budget.unlimited) ~store ~name layers =
  (* dedup by shape key, preserving first-occurrence order *)
  let keyed =
    List.map
      (fun (lname, stmt) -> (lname, stmt, shape_key ~config ?per_shape_limit stmt))
      layers
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let unique =
    List.filter_map
      (fun (lname, stmt, key) ->
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (lname, stmt, key)
        end)
      keyed
  in
  let total = List.length unique in
  let done_ctr = Atomic.make 0 in
  let progress_lock = Mutex.create () in
  let note lname hit points =
    match progress with
    | None -> ignore (Atomic.fetch_and_add done_ctr 1)
    | Some f ->
      let d = Atomic.fetch_and_add done_ctr 1 + 1 in
      Mutex.lock progress_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock progress_lock)
        (fun () ->
          f
            {
              pr_done = d;
              pr_total = total;
              pr_layer = lname;
              pr_hit = hit;
              pr_points = points;
            })
  in
  (* shape-major sharding: every worker owns whole shapes, and keys are
     unique within [unique], so no two domains touch the same store key.
     [try_map] contains per-shape faults (budget expiry, injected chaos,
     evaluation crashes): a failed shape degrades to an estimate instead
     of killing the sweep, and the Ok/Error pattern is deterministic and
     pool-width independent. *)
  let results =
    Tl_par.try_map ?domains ~label:"network-sweep"
      (fun (lname, stmt, key) ->
        let from_store =
          match Store.find store key with
          | None -> None
          | Some payload -> (
            match decode_points payload with
            | Some pts -> Some (payload, pts)
            | None -> None (* stale codec version: recompute *))
        in
        let hit, payload, pts =
          match from_store with
          | Some (payload, pts) -> (true, payload, pts)
          | None ->
            (* store hits above are served even on an expired budget;
               only fresh computation is gated *)
            Tl_resil.Budget.check budget;
            let computed = evaluate_shape ~config ?per_shape_limit ~budget stmt in
            let payload = encode_points computed in
            Store.put store key payload;
            (* decode our own payload so cold and warm sweeps flow
               through the identical code path (and the identical
               floats) *)
            let pts =
              match decode_points payload with
              | Some pts -> pts
              | None -> computed (* unreachable: own codec round-trips *)
            in
            (false, payload, pts)
        in
        note lname hit (List.length pts);
        (hit, payload, pts))
      unique
  in
  (* an overflowing classification is the statement's fault, not a
     transient one: no estimate stands in for it *)
  List.iter
    (function Error (Tl_stt.Reuse.Overflow _ as e) -> raise e | _ -> ())
    results;
  let shards = List.map2 (fun (_, _, key) r -> (key, r)) unique results in
  let by_key : (string, (bool * string * point list, exn) result) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter (fun (key, r) -> Hashtbl.replace by_key key r) shards;
  let layers_out =
    List.map
      (fun (lname, stmt, key) ->
        match Hashtbl.find by_key key with
        | Ok (hit, _payload, pts) ->
          {
            l_name = lname;
            l_key = key;
            l_hit = hit;
            l_points = List.length pts;
            l_frontier = frontier_of pts;
            l_best = best_of pts;
            l_degraded = false;
            l_est_cycles = None;
          }
        | Error _ ->
          {
            l_name = lname;
            l_key = key;
            l_hit = false;
            l_points = 0;
            l_frontier = [];
            l_best = None;
            l_degraded = true;
            l_est_cycles = Some (estimate_cycles ~config stmt);
          })
      keyed
  in
  let digest =
    (* completed payloads in unique-shape (first occurrence) order:
       deterministic and independent of the pool width.  A partial
       sweep's digest covers exactly the completed prefix set. *)
    let buf = Buffer.create 4096 in
    List.iter
      (fun (_, _, key) ->
        match Hashtbl.find by_key key with
        | Ok (_, payload, _) -> Buffer.add_string buf payload
        | Error _ -> ())
      unique;
    Tl_stt.Signature.key_digest (Buffer.contents buf)
  in
  let degraded =
    List.length (List.filter (fun (_, r) -> Result.is_error r) shards)
  in
  let completed_n = total - degraded in
  let hits =
    List.length
      (List.filter (function _, Ok (hit, _, _) -> hit | _ -> false) shards)
  in
  let misses = completed_n - hits in
  let complete = degraded = 0 in
  let sum f =
    List.fold_left
      (fun acc l -> match l.l_best with Some p -> acc +. f p | None -> acc)
      0. layers_out
  in
  let est_sum =
    List.fold_left
      (fun acc l ->
        match l.l_est_cycles with Some c -> acc +. c | None -> acc)
      0. layers_out
  in
  {
    r_network = name;
    r_layers = layers_out;
    r_unique_shapes = total;
    r_points =
      List.fold_left
        (fun acc (_, r) ->
          match r with Ok (_, _, pts) -> acc + List.length pts | Error _ -> acc)
        0 shards;
    r_total_cycles = sum (fun p -> p.p_perf.Perf.cycles) +. est_sum;
    r_total_runtime_us = sum (fun p -> p.p_perf.Perf.runtime_us);
    r_total_area = sum (fun p -> p.p_area);
    r_total_power = sum (fun p -> p.p_power);
    r_hits = hits;
    r_misses = misses;
    r_hit_rate =
      (if completed_n = 0 then 1.
       else float_of_int hits /. float_of_int completed_n);
    r_digest = digest;
    r_complete = complete;
    r_degraded_shapes = degraded;
  }

let to_json r =
  let open Tl_store.Json in
  let int n = Num (float_of_int n) in
  let layer l =
    Obj
      [ ("name", Str l.l_name);
        ("hit", Bool l.l_hit);
        ("points", int l.l_points);
        ("frontier", int (List.length l.l_frontier));
        ("best",
         match l.l_best with
         | None -> Null
         | Some p ->
           Obj
             [ ("design", Str p.p_perf.Perf.design_name);
               ("cycles", Num p.p_perf.Perf.cycles);
               ("runtime_us", Num p.p_perf.Perf.runtime_us);
               ("area", Num p.p_area);
               ("power_mw", Num p.p_power) ]);
        ("degraded", Bool l.l_degraded);
        ("est_cycles",
         match l.l_est_cycles with None -> Null | Some c -> Num c) ]
  in
  Obj
    [ ("schema", Str "tensorlib-sweep/1");
      ("network", Str r.r_network);
      ("layers", List (List.map layer r.r_layers));
      ("unique_shapes", int r.r_unique_shapes);
      ("points", int r.r_points);
      ("total_cycles", Num r.r_total_cycles);
      ("total_runtime_us", Num r.r_total_runtime_us);
      ("total_area", Num r.r_total_area);
      ("total_power_mw", Num r.r_total_power);
      ("hits", int r.r_hits);
      ("misses", int r.r_misses);
      ("hit_rate", Num r.r_hit_rate);
      ("digest", Str r.r_digest);
      ("complete", Bool r.r_complete);
      ("degraded_shapes", int r.r_degraded_shapes) ]
