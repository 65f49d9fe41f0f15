(* sweep: cold [Network.sweep]s of the unique shapes of tiny and then
   bert-base through fresh on-disk stores, and warm re-sweeps of both
   networks with the memo tables cleared in between, so the store alone
   serves them.

   Chosen because perf-model evaluation plus enumeration are nearly all
   of the cold time and store decoding is all of the warm time; no other
   workload touches those layers.  resnet18 is left out: one cold sweep
   of it takes about a minute.  The inputs are the fixed network tables,
   so the seed is recorded but draws nothing. *)

open Tensorlib
open Common

let networks = [ "tiny"; "bert-base" ]
let config = Perf.default_config

(* Set-up: cleared memo tables and counters, the layer tables, a fresh
   store. *)
let setup dir =
  Par.Cache.clear_all ();
  Perf.reset_counters ();
  let tables = Network.networks () in
  let inputs = List.map (fun name -> (name, List.assoc name tables)) networks in
  (Store.open_store ~root:dir (), inputs)

type pass = {
  digest : string;  (** per-network digests, joined *)
  points : int;
  cycles : float;  (** sum over layers of the min-cycles winner *)
  hits : int;
  unique : int;
}

let join passes =
  { digest = String.concat "," (List.map (fun p -> p.digest) passes);
    points = List.fold_left (fun a p -> a + p.points) 0 passes;
    cycles = List.fold_left (fun a p -> a +. p.cycles) 0. passes;
    hits = List.fold_left (fun a p -> a + p.hits) 0 passes;
    unique = List.fold_left (fun a p -> a + p.unique) 0 passes }

(* The end-to-end path: the library's own sweep. *)
let real_pass (store, inputs) =
  join
    (List.map
       (fun (name, layers) ->
         let r = Network.sweep ~domains:width ~store ~name layers in
         { digest = r.Network.r_digest;
           points = r.Network.r_points;
           cycles = r.Network.r_total_cycles;
           hits = r.Network.r_hits;
           unique = r.Network.r_unique_shapes })
       inputs)

(* ------------------------------------------------------------------ *)
(* Traced replica: the same public calls [Network.sweep] makes, in the
   same order, with a span around each. *)

let shard store stmt key =
  let decoded =
    match Spans.span "store.find" (fun () -> Store.find store key) with
    | None -> None
    | Some payload ->
      Spans.count "store.bytes" (String.length payload);
      Spans.span "store.decode" (fun () -> Network.decode_points payload)
      |> Option.map (fun pts -> (payload, pts))
  in
  match decoded with
  | Some (payload, pts) ->
    Spans.count "store.hits" 1;
    (true, payload, pts)
  | None ->
    Spans.count "store.misses" 1;
    let cands =
      Spans.span "dse.enumerate" (fun () ->
          Enumerate.design_space ~domains:1 stmt)
    in
    Spans.count "dse.points" (List.length cands);
    let pts =
      List.filter_map
        (fun (p : Enumerate.point) ->
          match
            Spans.span "perf.evaluate" (fun () ->
                Perf.evaluate ~config p.Enumerate.design)
          with
          | exception Invalid_argument _ ->
            Spans.count "perf.evaluate.dropped" 1;
            None
          | perf ->
            let asic =
              Spans.span "cost.asic" (fun () ->
                  Asic.evaluate ~rows:config.Perf.rows ~cols:config.Perf.cols
                    p.Enumerate.design)
            in
            Some
              { Network.p_area = asic.Asic.area;
                p_power = asic.Asic.power_mw;
                p_perf = perf })
        cands
    in
    let payload = Spans.span "store.encode" (fun () -> Network.encode_points pts) in
    Spans.count "store.bytes" (String.length payload);
    Spans.span "store.put" (fun () -> Store.put store key payload);
    let pts =
      Option.value ~default:pts
        (Spans.span "store.decode" (fun () -> Network.decode_points payload))
    in
    (false, payload, pts)

let best_cycles pts =
  List.fold_left
    (fun acc (p : Network.point) ->
      let c = p.Network.p_perf.Perf.cycles in
      match acc with Some b when b <= c -> acc | _ -> Some c)
    None pts

let replica_network store (_, layers) =
  let keyed = List.map (fun (l, s) -> (l, s, Network.shape_key ~config s)) layers in
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun (_, _, k) ->
        if Hashtbl.mem seen k then false
        else (Hashtbl.add seen k (); true))
      keyed
  in
  let shards =
    Par.map ~domains:width ~label:"network-sweep"
      (fun (_, stmt, key) -> Spans.with_id key (fun () -> shard store stmt key))
      unique
  in
  let by_key = List.map2 (fun (_, _, k) r -> (k, r)) unique shards in
  let cycles =
    List.fold_left
      (fun acc (_, _, key) ->
        let _, _, pts = List.assoc key by_key in
        ignore
          (Enumerate.pareto_min
             (fun (p : Network.point) -> (p.Network.p_perf.Perf.cycles, p.Network.p_power))
             pts);
        match best_cycles pts with Some c -> acc +. c | None -> acc)
      0. keyed
  in
  { digest =
      Signature.key_digest
        (String.concat "" (List.map (fun (_, (_, payload, _)) -> payload) by_key));
    points = List.fold_left (fun a (_, (_, _, pts)) -> a + List.length pts) 0 by_key;
    cycles;
    hits = List.length (List.filter (fun (_, (hit, _, _)) -> hit) by_key);
    unique = List.length unique }

let replica_pass (store, inputs) = join (List.map (replica_network store) inputs)

(* ------------------------------------------------------------------ *)

(* The unique shapes of both networks in sweep order, each as a
   one-layer network: the cold units.  One cold pass is 8 such units. *)
let unique_shapes inputs =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (name, layers) ->
      List.filter_map
        (fun (l, s) ->
          let k = Network.shape_key ~config s in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some (name ^ "/" ^ l, [ (l, s) ])
          end)
        layers)
    inputs

(* Every timed sweep starts, like a fresh [tensorlib sweep] process, with
   empty memo tables and a compacted heap, so that no sample pays for
   the garbage of the one before. *)
let fresh_heap () =
  Par.Cache.clear_all ();
  Gc.compact ()

let sweep_one store (label, layers) =
  fresh_heap ();
  scaled.timed (fun () -> Network.sweep ~domains:width ~store ~name:label layers)

(* A run first sweeps every shape cold into the run's store, which then
   serves the warm re-sweeps of both networks.  After that it cycles
   through the shapes again, each on a fresh store per round, and follows
   every cold sample with [warm_per_cold] warm re-sweeps, each after a
   throw-away set-up that is timed as a set-up sample.  Cold, warm and
   set-up samples so spread over the whole run: a slow spell of the host
   weighs in proportion to its length, not by whether it hit one window.
   Every shape is sampled cold at least twice; later rounds take a shape
   only while it still fits before the deadline. *)
let warm_per_cold = 4
let min_rounds = 2

let bad b = if b then 1 else 0

(* Cold seconds of one pass: each shape's fastest cold sweep of the run,
   summed.  Host noise on a shared machine only ever adds time, so a slow
   spell that hits one sample of a shape does not reach the figure. *)
let cold_pass_s labels samples =
  List.fold_left
    (fun acc label ->
      acc +. List.fold_left (fun a (l, s) -> if l = label then Float.min a s else a) infinity samples)
    0. labels

let run ~seed:_ ~seconds =
  let deadline = now () +. seconds in
  with_tmp_dir @@ fun wdir ->
  let ((wstore, inputs) as prepared), setup0 = scaled.timed (fun () -> setup wdir) in
  let shapes = unique_shapes inputs in
  let first =
    List.map
      (fun shape ->
        let r, s = sweep_one wstore shape in
        (shape, r, s))
      shapes
  in
  let failed = ref (List.fold_left (fun n (_, r, _) -> n + bad (r.Network.r_hits <> 0)) 0 first) in
  let setups = ref [ setup0 ] and warm = ref [] and reference = ref None in
  let cold = ref (List.map (fun ((l, _), _, s) -> (l, s)) first) in
  let warm_sample () =
    setups := with_tmp_dir (fun d -> snd (scaled.timed (fun () -> setup d))) :: !setups;
    fresh_heap ();
    let p, t = scaled.timed (fun () -> real_pass prepared) in
    warm := t :: !warm;
    failed := !failed + bad (p.hits <> p.unique);
    match !reference with
    | None -> reference := Some p
    | Some p0 -> failed := !failed + bad (p.digest <> p0.digest || p.cycles <> p0.cycles)
  in
  let rounds = ref 1 and ran = ref 1 in
  while !rounds < min_rounds || (!ran > 0 && now () < deadline) do
    ran := 0;
    with_tmp_dir (fun dir ->
        let (store, _), s = scaled.timed (fun () -> setup dir) in
        setups := s :: !setups;
        List.iter
          (fun ((label, _) as shape, (r0 : Network.report), s0) ->
            if !rounds < min_rounds || now () +. s0 < deadline then begin
              let r, s = sweep_one store shape in
              incr ran;
              cold := (label, s) :: !cold;
              failed :=
                !failed + bad (r.Network.r_hits <> 0 || r.Network.r_digest <> r0.Network.r_digest);
              for _ = 1 to warm_per_cold do warm_sample () done
            end)
          first);
    incr rounds
  done;
  (* each shape's warm digest against its cold one *)
  List.iter
    (fun (shape, (r0 : Network.report), _) ->
      let r, _ = sweep_one wstore shape in
      failed :=
        !failed
        + bad (r.Network.r_hits <> r.Network.r_unique_shapes || r.Network.r_digest <> r0.Network.r_digest))
    first;
  let p0 = Option.get !reference in
  let labels = List.map (fun ((l, _), _, _) -> l) first in
  let cold = List.rev !cold and warm = List.rev !warm in
  let points = float_of_int p0.points in
  let cold_s = cold_pass_s labels cold in
  { setup = !setups;
    latencies = warm;
    work = points;
    busy = cold_s;
    model_cycles = p0.cycles;
    attempted = List.length cold + List.length warm + List.length first;
    failed =
      !failed + bad (List.fold_left (fun a (_, r, _) -> a + r.Network.r_points) 0 first <> p0.points);
    rss_mb = self_rss_mb ();
    scoped =
      [ ("sweep.points_per_s", points /. cold_s);
        ("sweep.warm_ms", 1e3 *. Stats.median warm);
        ("sweep.model_cycles", p0.cycles) ];
    facts =
      [ ("digest", Json.Str p0.digest);
        ("points", Json.Num points);
        ("rounds", Json.Num (float_of_int !rounds));
        ( "cold_unit_s",
          Json.Obj
            (List.map
               (fun label ->
                 ( label,
                   Json.List
                     (List.filter_map
                        (fun (l, s) -> if l = label then Some (Json.Num s) else None)
                        cold) ))
               labels) ) ] }

(* One cold and one warm pass, first through [Network.sweep] untraced,
   then through the traced replica on a fresh store. *)
let traced ~seed:_ =
  let cold_and_warm pass dir =
    let prepared = setup dir in
    let cold = pass prepared in
    let st = Par.Cache.all_stats () in
    List.iter
      (fun (s : Par.Cache.stats) ->
        if s.Par.Cache.name = "perf.evaluate" then begin
          Spans.count "perf.cache.hits" s.Par.Cache.hits;
          Spans.count "perf.cache.misses" s.Par.Cache.misses
        end)
      st;
    List.iter (fun (k, v) -> Spans.count ("perf." ^ k) v) (Perf.counters ());
    Par.Cache.clear_all ();
    let warm, warm_s = time (fun () -> pass prepared) in
    (cold, warm, warm_s)
  in
  let (ref_cold, ref_warm, ref_warm_s), wall_off =
    with_tmp_dir (fun d -> time (fun () -> cold_and_warm real_pass d))
  in
  let (cold, warm, _), wall_on =
    with_tmp_dir (fun d -> Spans.traced "sweep" (fun () -> cold_and_warm replica_pass d))
  in
  let checks =
    [ cold.digest = ref_cold.digest;
      warm.digest = ref_warm.digest;
      warm.digest = cold.digest;
      cold.points = ref_cold.points;
      cold.cycles = ref_cold.cycles;
      warm.hits = warm.unique ]
  in
  { wall_off;
    wall_on;
    t_attempted = List.length checks;
    t_failed = List.length (List.filter not checks);
    t_scoped =
      [ ("sweep.points_per_s", float_of_int ref_cold.points /. (wall_off -. ref_warm_s));
        ("sweep.warm_ms", 1e3 *. ref_warm_s);
        ("sweep.model_cycles", ref_cold.cycles) ];
    t_facts =
      [ ("digest", Json.Str cold.digest); ("reference_digest", Json.Str ref_cold.digest) ] }
