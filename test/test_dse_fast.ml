(* Fast-path DSE engine: closed-form schedule statistics vs the
   materialised reference in [Oracle], branch-and-bound tile search vs
   exhaustive enumeration, and the sort-based Pareto filter. *)

open Tensorlib

let small_workloads =
  [ ("gemm", Workloads.gemm ~m:8 ~n:8 ~k:8);
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3);
    ("mttkrp", Workloads.mttkrp ~i:5 ~j:4 ~k:4 ~l:4);
    ("depthwise", Workloads.depthwise_conv ~k:6 ~y:5 ~x:5 ~p:3 ~q:3) ]

let check_stats_equal label (a : Perf.tile_stats) (b : Perf.tile_stats) =
  Alcotest.(check int) (label ^ " span") a.Perf.t_span b.Perf.t_span;
  Alcotest.(check int) (label ^ " active_pes") a.Perf.active_pes
    b.Perf.active_pes;
  Alcotest.(check int)
    (label ^ " active_pe_cycles")
    a.Perf.active_pe_cycles b.Perf.active_pe_cycles;
  Alcotest.(check int) (label ^ " busiest") a.Perf.busiest_pe b.Perf.busiest_pe;
  (* demand and traffic must be bit-identical, not approximately equal *)
  Alcotest.(check bool) (label ^ " demand") true (a.Perf.demand = b.Perf.demand);
  Alcotest.(check bool)
    (label ^ " per_tensor")
    true
    (a.Perf.per_tensor = b.Perf.per_tensor)

(* closed-form statistics equal the materialised reference on every design of
   four workloads (multi-pass schedules included: unselected loops > 1) *)
let test_streaming_stats_workloads () =
  let checked = ref 0 in
  List.iter
    (fun (wname, stmt) ->
      List.iter
        (fun (dname, d) ->
          match Schedule.v d ~rows:16 ~cols:16 with
          | exception Schedule.Unsupported _ -> ()
          | sched ->
            let reference = Oracle.tile_statistics sched in
            let streaming = Perf.tile_statistics sched in
            incr checked;
            check_stats_equal (wname ^ "/" ^ dname) reference streaming)
        (List.filteri (fun i _ -> i < 10) (Search.all_designs stmt)))
    small_workloads;
  Alcotest.(check bool) "checked some designs" true (!checked > 20)

let arbitrary_matrix =
  let gen =
    QCheck.Gen.(
      let cell = int_range (-1) 1 in
      let rec full_rank () =
        array_size (return 9) cell >>= fun cells ->
        let m =
          List.init 3 (fun i -> List.init 3 (fun j -> cells.((i * 3) + j)))
        in
        if Rat.is_zero (Mat.det (Mat.of_int_rows m)) then full_rank ()
        else return m
      in
      full_rank ())
  in
  QCheck.make
    ~print:(fun m ->
      String.concat ";"
        (List.map (fun r -> String.concat "," (List.map string_of_int r)) m))
    gen

(* Random STTs over three statement/selection pairs.  GEMM reuses in one
   pass only; conv2d selecting (y, x, p) and mttkrp selecting (i, k, l)
   add 2-D reuse, unselected loops > 1 (multi-pass schedules), systolic
   steps with [dt >= 2] and [|det T| = 2].  The run tallies the cases
   that reach each counting rule of the closed form and requires
   every one, so the property cannot quietly degenerate to easy cases. *)
let stats_cases =
  [| (Workloads.gemm ~m:7 ~n:6 ~k:5, [ "m"; "n"; "k" ]);
     (Workloads.conv2d ~k:2 ~c:2 ~y:4 ~x:4 ~p:3 ~q:2, [ "y"; "x"; "p" ]);
     (Workloads.mttkrp ~i:5 ~j:3 ~k:4 ~l:4, [ "i"; "k"; "l" ]) |]

let stats_features (d : Design.t) =
  let flow (ti : Design.tensor_info) =
    match ti.Design.dataflow with
    | Dataflow.Reuse2d (Dataflow.Systolic_multicast { systolic; _ }) ->
      [ "systolic-multicast" ]
      @ if systolic.Dataflow.dt >= 2 then [ "systolic dt>=2" ] else []
    | Dataflow.Reuse2d (Dataflow.Multicast_stationary _) ->
      [ "multicast-stationary" ]
    | Dataflow.Reuse2d Dataflow.Broadcast -> [ "broadcast" ]
    | Dataflow.Systolic { dt; _ } when dt >= 2 -> [ "systolic dt>=2" ]
    | _ -> []
  in
  let _, det = Transform.adjugate d.Design.transform in
  (if abs det = 2 then [ "|det T|=2" ] else [])
  @ List.concat_map flow d.Design.tensors

(* Each draw also scores a tile inside the selected box, [1 + v mod e]
   per loop: [Schedule.tile]'s one pass over it against the schedule of
   the tile's own statement, materialised. *)
let test_streaming_stats_random () =
  let seen = Hashtbl.create 8 in
  let arb =
    QCheck.triple (QCheck.int_bound (Array.length stats_cases - 1))
      arbitrary_matrix
      (QCheck.array_of_size (QCheck.Gen.return 3) QCheck.small_nat)
  in
  let prop =
    QCheck.Test.make ~name:"streaming = materialised" ~count:150 arb
      (fun (case, m, draw) ->
        let stmt, names = stats_cases.(case) in
        let d = Design.analyze (Transform.by_names stmt names ~matrix:m) in
        match Schedule.v d ~rows:24 ~cols:24 with
        | exception Schedule.Unsupported _ -> true
        | sched ->
          List.iter (fun f -> Hashtbl.replace seen f ()) (stats_features d);
          let tile =
            Array.mapi (fun j e -> 1 + (draw.(j) mod e)) sched.Schedule.extents
          in
          Oracle.tile_statistics sched = Perf.tile_statistics sched
          && Oracle.tile_statistics
               (Schedule.v (Oracle.tile_design d tile) ~rows:24 ~cols:24)
             = Perf.tile_statistics (Schedule.tile d ~rows:24 ~cols:24 tile))
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |]) prop;
  List.iter
    (fun f -> Alcotest.(check bool) ("reached " ^ f) true (Hashtbl.mem seen f))
    [ "systolic-multicast"; "multicast-stationary"; "broadcast";
      "systolic dt>=2"; "|det T|=2" ]

(* 1-D arrays (two selected iterators, one column): every full-rank
   {-1,0,1} 2×2 STT of GEMM (m, k) and conv2d (y, p) on 3, 8 and 24
   rows, so the two-row transforms reach each rule the random 3×3 ones
   do on a 2-D array *)
let test_stats_1d_frames () =
  let checked = ref 0 in
  List.iter
    (fun (stmt, names) ->
      List.iter
        (fun m ->
          let d = Design.analyze (Transform.by_names stmt names ~matrix:m) in
          List.iter
            (fun rows ->
              match Schedule.v d ~rows ~cols:1 with
              | exception Schedule.Unsupported _ -> ()
              | sched ->
                incr checked;
                check_stats_equal
                  (Printf.sprintf "%s %dx1" d.Design.name rows)
                  (Oracle.tile_statistics sched)
                  (Perf.tile_statistics sched))
            [ 3; 8; 24 ])
        (Search.candidate_matrices ~n:2))
    [ (fst stats_cases.(0), [ "m"; "k" ]);
      (fst stats_cases.(1), [ "y"; "p" ]) ];
  Alcotest.(check bool) "checked most frames" true (!checked > 150)

(* index components beyond the old 10-bit packing range: a long loop on
   the time axis drives tensor indices past 1023, where the narrow code
   used to collide silently; both paths must now agree exactly *)
let test_stats_wide_indices () =
  let stmt = Workloads.gemm ~m:1100 ~n:4 ~k:4 in
  let t =
    Transform.by_names stmt [ "m"; "n"; "k" ]
      ~matrix:[ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ]
  in
  let d = Design.analyze t in
  let sched = Schedule.v d ~rows:16 ~cols:16 in
  check_stats_equal "wide" (Oracle.tile_statistics sched)
    (Perf.tile_statistics sched)

(* pruned tile search + closed-form stats must reproduce the exhaustive +
   materialised reference bit-for-bit, over whole evaluation records: both
   return equal records or both raise the same exception *)
let check_evaluate_agrees label d =
  let outcome f =
    match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)
  in
  let reference = outcome (fun () -> Oracle.evaluate_reference d) in
  let fast = outcome (fun () -> Perf.evaluate d) in
  Alcotest.(check bool) (label ^ " identical outcome") true (reference = fast);
  fast

let test_pruned_equals_exhaustive () =
  let checked = ref 0 in
  List.iter
    (fun stmt ->
      List.iter
        (fun (dname, d) ->
          match check_evaluate_agrees dname d with
          | Ok _ -> incr checked
          | Error _ -> ())
        (List.filteri (fun i _ -> i < 8) (Search.all_designs stmt)))
    [ Workloads.gemm ~m:256 ~n:256 ~k:256;
      Workloads.conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3 ];
  Alcotest.(check bool) "checked some designs" true (!checked > 6)

(* a systolic tensor with dt = 2 (conv's y+p input): its first chain
   entries have their predecessor slot before cycle 0, which both paths
   must count as entries *)
let test_systolic_dt2_regression () =
  let stmt = Workloads.conv2d ~k:2 ~c:2 ~y:4 ~x:4 ~p:3 ~q:2 in
  let d =
    Design.analyze
      (Transform.by_names stmt [ "y"; "x"; "p" ]
         ~matrix:[ [ -1; -1; -1 ]; [ -1; -1; 0 ]; [ -1; 0; 1 ] ])
  in
  Alcotest.(check string) "design" "YXP-SBS" d.Design.name;
  let sched = Schedule.v d ~rows:24 ~cols:24 in
  check_stats_equal "YXP-SBS" (Oracle.tile_statistics sched)
    (Perf.tile_statistics sched);
  match check_evaluate_agrees "YXP-SBS" d with
  | Ok r -> Alcotest.(check (float 0.)) "cycles" 64. r.Perf.cycles
  | Error e -> Alcotest.fail e

(* evaluating the same designs again returns the same records *)
let test_evaluate_warm_equals_cold () =
  let stmt = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  let designs =
    List.filteri (fun i _ -> i < 6) (Search.all_designs stmt)
    |> List.map snd
  in
  let cold = List.map (fun d -> Perf.evaluate d) designs in
  let warm = List.map (fun d -> Perf.evaluate d) designs in
  Alcotest.(check bool) "warm = cold" true (cold = warm)

(* evaluation is domain-safe: a multi-domain map over the same designs
   returns exactly the sequential results *)
let test_evaluate_multi_domain () =
  let stmt = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  let designs =
    List.filteri (fun i _ -> i < 8) (Search.all_designs stmt)
    |> List.map snd
  in
  let seq = List.map (fun d -> Perf.evaluate d) designs in
  let par = Par.map ~domains:2 (fun d -> Perf.evaluate d) designs in
  Alcotest.(check bool) "par = seq" true (seq = par)

(* The one classifier against the rational reference ([Oracle.analyze])
   on random statements whose index terms carry coefficients above 1 and
   sums, under random integer matrices with n = 2, 3 or 4: equal designs,
   and a refusal only where the reference overflows too.  The draws reach
   every array rank, the 2-D systolic+multicast reduction and a
   refusal. *)
let test_analyze_equals_oracle () =
  let seen = Hashtbl.create 8 in
  let reach f = Hashtbl.replace seen f () in
  let prop =
    QCheck.Test.make ~name:"Design.analyze = Oracle.analyze" ~count:400
      (QCheck.make ~print:string_of_int QCheck.Gen.int)
      (fun seed ->
        let t = Oracle.classifier_case (Random.State.make [| seed |]) in
        reach (Printf.sprintf "n=%d" (Array.length t.Transform.selected));
        match Oracle.check_classifier t with
        | Oracle.Agree d ->
          List.iter
            (fun (ti : Design.tensor_info) ->
              match ti.Design.dataflow with
              | Dataflow.Reuse2d (Dataflow.Systolic_multicast _) ->
                reach "systolic-multicast"
              | _ -> ())
            d.Design.tensors;
          true
        | Oracle.Refused ->
          reach "refused";
          true
        | Oracle.Unchecked -> true
        | Oracle.Mismatch msg -> QCheck.Test.fail_report msg)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |]) prop;
  List.iter
    (fun f -> Alcotest.(check bool) ("reached " ^ f) true (Hashtbl.mem seen f))
    [ "n=2"; "n=3"; "n=4"; "systolic-multicast"; "refused" ]

(* Pareto: the sweep must agree with the quadratic reference, preserving
   input order and keeping duplicate projections *)
let pareto_reference project items =
  let dominated (x1, y1) (x2, y2) =
    x2 <= x1 && y2 <= y1 && (x2 < x1 || y2 < y1)
  in
  List.filter
    (fun a ->
      let pa = project a in
      not (List.exists (fun b -> b != a && dominated pa (project b)) items))
    items

let prop_pareto_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (pair (int_range 0 8) (int_range 0 8)))
  in
  let arb =
    QCheck.make
      ~print:(fun l ->
        String.concat ";"
          (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l))
      gen
  in
  QCheck.Test.make ~name:"pareto_min = quadratic reference" ~count:200 arb
    (fun pts ->
      let project (a, b) = (float_of_int a, float_of_int b) in
      Enumerate.pareto_min project pts = pareto_reference project pts)

let test_evaluate_name_deterministic () =
  let stmt = Workloads.gemm ~m:256 ~n:256 ~k:256 in
  let a = Perf.evaluate_name stmt "MNK-SST" in
  let b = Perf.evaluate_name stmt "MNK-SST" in
  Alcotest.(check bool) "some result" true (a <> None);
  Alcotest.(check bool) "repeat = first" true (a = b)

(* an extent near max_int whose domain still fits an int: the pass count
   and the cycle estimates must not wrap negative *)
let test_evaluate_huge_extent () =
  let stmt =
    Parse.stmt "C[m,n] += A[m,k] * B[n,k]"
      ~extents:[ ("m", 1); ("n", 1); ("k", 4611686018427387900) ]
  in
  match Perf.evaluate_name stmt "MNK-SST" with
  | None -> Alcotest.fail "no result"
  | Some r ->
    (* a 512-deep k tile: k / 512 rounded up is 2^53 passes *)
    Alcotest.(check int) "passes" (1 lsl 53) r.Perf.total_passes;
    Alcotest.(check string) "cycles" "4611686018427387904"
      (Printf.sprintf "%.0f" r.Perf.cycles);
    Alcotest.(check bool) "pipelined cycles positive" true
      (r.Perf.pipelined_cycles > 0.)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* a cold sweep on fresh memos, through a fresh store it removes after *)
let cold_sweep name layers =
  Par.Cache.clear_all ();
  let root = Filename.temp_file "tlsweep" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists root then remove_tree root)
    (fun () ->
      Network.sweep ~domains:1 ~store:(Store.open_store ~root ()) ~name layers)

(* cold sweeps of two cheap network shapes keep their pinned digests, as
   netlist_digests.expected pins netlists: a change to any evaluated
   figure shows here.  The tile-search counters are pinned too, so a
   search that visits other nodes fails even when it keeps the tiles. *)
let test_sweep_digests_pinned () =
  let tables = Network.networks () in
  let layer net name = (name, List.assoc name (List.assoc net tables)) in
  List.iter
    (fun (name, layers, digest, counters) ->
      Perf.reset_counters ();
      Alcotest.(check string) name digest
        (cold_sweep name layers).Network.r_digest;
      Alcotest.(check (list (pair string int))) (name ^ " search counters")
        counters (Perf.counters ()))
    [ ("tiny-gemm_a", [ layer "tiny" "gemm_a" ],
       "dc83c4c801616186acf85d53f3702544",
       [ ("tile_nodes", 411_582); ("tile_leaves", 31_377);
         ("tile_pruned", 289_514); ("tiles_evaluated", 1_179) ]);
      ("bert-attn_scores", [ layer "bert-base" "attn_scores" ],
       "3cc414dabe54c390692a6a5c5db531b9",
       [ ("tile_nodes", 451_836); ("tile_leaves", 33_738);
         ("tile_pruned", 320_665); ("tiles_evaluated", 1_179) ]) ]

(* a cold sweep of three shapes, over a thousand points, keeps its
   pinned digest, and its points are the shapes' design spaces *)
let test_three_shape_sweep_pinned () =
  let layers =
    List.init 3 (fun i ->
        (Printf.sprintf "g%d" i, Workloads.gemm ~m:8 ~n:8 ~k:(4 + i)))
  in
  let r = cold_sweep "memo3" layers in
  Alcotest.(check string) "digest" "cf5caa1232de05735efbd17e876d85f0"
    r.Network.r_digest;
  let designs =
    List.concat_map
      (fun (_, stmt) ->
        List.map (fun (p : Enumerate.point) -> p.Enumerate.design)
          (Enumerate.design_space stmt))
      layers
  in
  Alcotest.(check int) "the sweep's designs" r.Network.r_points
    (List.length designs)

(* the store's cache key is pinned text, [Perf.config_fingerprint]
   included: a changed rendering orphans every entry of an existing
   store *)
let test_cache_key_pinned () =
  let gemm = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let stmt_part =
    "GEMM{m=4 n=4 k=4 A[,1,0,0;,0,0,1;] B[,0,1,0;,0,0,1;] C[,1,0,0;,0,1,0;]}"
  in
  Alcotest.(check string) "default config"
    ("tlnet/1|16,16,0x1.4p+8,0x1p+5,2,0x1p+8|limit=all|" ^ stmt_part)
    (Network.shape_key gemm);
  Alcotest.(check string) "8x16 config"
    ("tlnet/1|8,16,0x1.4p+8,0x1p+5,2,0x1p+8|limit=all|" ^ stmt_part)
    (Network.shape_key ~config:{ Perf.default_config with Perf.rows = 8 } gemm)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ Alcotest.test_case "streaming stats on 4 workloads" `Quick
      test_streaming_stats_workloads;
    Alcotest.test_case "streaming stats, wide indices" `Quick
      test_stats_wide_indices;
    Alcotest.test_case "pruned = exhaustive evaluate" `Slow
      test_pruned_equals_exhaustive;
    Alcotest.test_case "evaluate warm = cold" `Quick
      test_evaluate_warm_equals_cold;
    Alcotest.test_case "evaluate under Tl_par domains" `Quick
      test_evaluate_multi_domain;
    Alcotest.test_case "evaluate_name deterministic" `Quick
      test_evaluate_name_deterministic;
    Alcotest.test_case "evaluate with a near-max_int extent" `Quick
      test_evaluate_huge_extent;
    Alcotest.test_case "streaming stats = materialised stats (random STT)"
      `Quick test_streaming_stats_random;
    Alcotest.test_case "closed-form stats on 1-D frames" `Quick
      test_stats_1d_frames;
    Alcotest.test_case "Design.analyze = Oracle.analyze" `Quick
      test_analyze_equals_oracle ]
  @ qsuite [ prop_pareto_matches_reference ]
  @ [ Alcotest.test_case "systolic dt=2 regression (YXP-SBS)" `Quick
        test_systolic_dt2_regression;
      Alcotest.test_case "cold sweep digests pinned" `Slow
        test_sweep_digests_pinned;
      Alcotest.test_case "three-shape sweep digest pinned" `Slow
        test_three_shape_sweep_pinned;
      Alcotest.test_case "cache key pinned" `Quick test_cache_key_pinned ]
