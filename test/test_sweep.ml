(* The classification sweep that [Enumerate.design_space],
   [Search.all_designs] and [Search.matching_designs] share, against the
   per-candidate code it replaced ([Oracle]): the memoised classes equal
   [Reuse.classify_matrix] on every candidate, enumeration and name
   lookup return what the oracles return, malformed names and
   selections are refused before any sweep, and the candidate order is
   pinned. *)

open Tensorlib

let render_matrices ms =
  String.concat "\n"
    (List.map
       (fun m ->
         String.concat ";"
           (List.map (fun r -> String.concat "," (List.map string_of_int r)) m))
       ms)

(* the search order decides which matrix represents a dataflow, so the
   designs every command picks: pin it whole *)
let test_candidate_order_pinned () =
  List.iter
    (fun (n, count, digest) ->
      let ms = Search.candidate_matrices ~n in
      Alcotest.(check int) (Printf.sprintf "n=%d count" n) count
        (List.length ms);
      Alcotest.(check string) (Printf.sprintf "n=%d order" n) digest
        (Digest.to_hex (Digest.string (render_matrices ms ^ "\n"))))
    [ (3, 11808, "5073a882c741fa7eaecd881b43cd16dc");
      (2, 48, "df8d3363ffbec374f278c8144f3c7903") ];
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "n=%d refused" n)
        (Invalid_argument
           (Printf.sprintf
              "Search.candidate_matrices: n must be 2 or 3; got %d" n))
        (fun () -> ignore (Search.candidate_matrices ~n)))
    [ 0; 1; 4 ]

let plan_entries () =
  (List.find
     (fun (s : Par.Cache.stats) -> s.Par.Cache.name = "stt.search_plan")
     (Par.Cache.all_stats ()))
    .Par.Cache.entries

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* malformed names and selections fail before any sweep (a 4-letter
   label would otherwise sweep 3^16 matrices) and leave no plan *)
let test_refused_before_sweep () =
  let gemm = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let conv = Workloads.conv2d ~k:2 ~c:2 ~y:3 ~x:3 ~p:2 ~q:2 in
  List.iter
    (fun (label, stmt, name) ->
      Alcotest.(check bool) (label ^ " refused") true
        (raises_invalid (fun () -> Search.find_design stmt name)))
    [ ("no dash", gemm, "MNK");
      ("repeated iterator", gemm, "MMK-SST");
      ("repeated 4-letter", gemm, "MNKK-SSTT");
      ("4 distinct iterators", conv, "KCXY-SSTT");
      ("1 iterator", gemm, "M-S");
      ("empty selection", gemm, "-SST") ];
  Alcotest.(check bool) "unknown initial: not realisable" true
    (Search.find_design gemm "MNZ-SST" = None);
  Alcotest.(check bool) "letter count: not realisable" true
    (Search.find_design gemm "MNK-SS" = None);
  let before = plan_entries () in
  List.iter
    (fun sel ->
      Alcotest.(check bool) "selection refused" true
        (raises_invalid (fun () -> Search.all_designs ~selection:sel gemm)))
    [ [| 0; 0; 1 |]; [| 0 |]; [| 0; 1; 3 |]; [| 0; 1; 2; 2 |] ];
  Alcotest.(check int) "no plan left behind" before (plan_entries ())

(* ---------- random statements ---------- *)

(* depth 3 or 4, two or three inputs; an index term may add a second
   iterator with coefficient 1, 2, 3 or 40, the last too large for the
   packed image keys, so the unmemoised path runs too *)
let gen_stmt =
  QCheck.Gen.(
    int_range 3 4 >>= fun depth ->
    let term =
      int_bound (depth - 1) >>= fun j ->
      frequency
        [ (3, return [ (j, 1) ]);
          ( 2,
            pair (int_bound (depth - 2)) (oneofl [ 1; 1; 2; 3; 40 ])
            >|= fun (o, c) -> [ (j, 1); ((j + 1 + o) mod depth, c) ] ) ]
    in
    let access name =
      list_size (int_range 1 3) term >|= fun rows ->
      Access.v name
        (Array.of_list
           (List.map
              (fun terms ->
                let row = Array.make depth 0 in
                List.iter (fun (j, c) -> row.(j) <- row.(j) + c) terms;
                row)
              rows))
    in
    let names = [| "i"; "j"; "k"; "l" |] in
    access "O" >>= fun output ->
    access "A" >>= fun a ->
    access "B" >>= fun b ->
    (bool >>= fun three ->
     if three then access "C" >|= fun c -> [ a; b; c ] else return [ a; b ])
    >>= fun inputs ->
    int_range 2 3 >>= fun n ->
    shuffle_l (List.init depth Fun.id) >|= fun perm ->
    let selected = Array.of_list (List.filteri (fun i _ -> i < n) perm) in
    Array.sort compare selected;
    ( Stmt.v "rand"
        ~iters:(List.init depth (fun d -> Iter.v names.(d) 3))
        ~output ~inputs,
      selected ))

let print_case (stmt, selected) =
  Format.asprintf "%s sel=[%s]"
    (Signature.stmt_fingerprint stmt)
    (String.concat ";" (Array.to_list (Array.map string_of_int selected)))

(* every candidate's classes are [classify_matrix]'s, and within a tensor
   equal ids mean equal dataflows *)
let sweep_agrees (stmt, selected) =
  let preps =
    List.map (Reuse.prepare ~selected) (stmt.Stmt.inputs @ [ stmt.Stmt.output ])
  in
  let by_id = Array.of_list (List.map (fun _ -> Hashtbl.create 16) preps) in
  let ok = ref true in
  Search.sweep ~budget:Resil.Budget.unlimited stmt ~selected (fun m ids dfs ->
      let im = Array.of_list (List.map Array.of_list m) in
      List.iteri
        (fun t p ->
          let df = Reuse.classify_matrix p im in
          if dfs.(t) <> df then ok := false;
          match Hashtbl.find_opt by_id.(t) ids.(t) with
          | Some df' -> if df' <> df then ok := false
          | None -> Hashtbl.add by_id.(t) ids.(t) df)
        preps);
  (* distinct ids within a tensor are distinct dataflows *)
  Array.iter
    (fun tbl ->
      let dfs = Hashtbl.fold (fun _ df acc -> df :: acc) tbl [] in
      if List.length (List.sort_uniq compare dfs) <> List.length dfs then
        ok := false)
    by_id;
  !ok

let prop_sweep_equals_classify_matrix =
  QCheck.Test.make ~name:"sweep classes = classify_matrix" ~count:10
    (QCheck.make ~print:print_case gen_stmt)
    sweep_agrees

(* [A[i + 40 j]] has the null vector (40, -1, 0) under (i, j, k): no
   packed key can hold its images, so [A] is classified afresh on every
   candidate while [B] and [O] use the memo *)
let test_unpacked_images () =
  let stmt =
    Stmt.v "wide"
      ~iters:[ Iter.v "i" 3; Iter.v "j" 3; Iter.v "k" 3 ]
      ~output:(Access.v "O" [| [| 1; 0; 0 |]; [| 0; 0; 1 |] |])
      ~inputs:
        [ Access.v "A" [| [| 1; 40; 0 |] |];
          Access.v "B" [| [| 0; 1; 0 |]; [| 0; 0; 1 |] |] ]
  in
  Alcotest.(check bool) "classes = classify_matrix" true
    (sweep_agrees (stmt, [| 0; 1; 2 |]))

(* classification reads no extents: a tile of a design keeps its
   dataflows, which is what [Perf] relies on when it reuses them *)
let prop_tile_keeps_dataflows =
  let gen =
    QCheck.Gen.(
      triple gen_stmt (int_bound 100_000) (list_repeat 3 (int_range 1 7)))
  in
  QCheck.Test.make ~name:"{ d with transform = tile } = analyze tile"
    ~count:200
    (QCheck.make ~print:(fun (c, _, _) -> print_case c) gen)
    (fun ((stmt, selected), pick, tile) ->
      let ms = Search.candidate_matrices ~n:(Array.length selected) in
      let matrix = List.nth ms (pick mod List.length ms) in
      let d = Design.analyze (Transform.v stmt ~selected ~matrix) in
      let tile = Array.of_list tile in
      let iters =
        List.mapi
          (fun i it ->
            let ext =
              match Array.find_index (( = ) i) selected with
              | Some k -> tile.(k)
              | None -> 1
            in
            Iter.v it.Iter.name ext)
          stmt.Stmt.iters
      in
      let ts =
        Stmt.v stmt.Stmt.name ~iters ~output:stmt.Stmt.output
          ~inputs:stmt.Stmt.inputs
      in
      let tt = Transform.v ts ~selected ~matrix in
      { d with Design.transform = tt } = Design.analyze tt)

(* ---------- enumeration and name lookup against the oracles ---------- *)

let check_space label expected got =
  let sigs = List.map (fun (p : Enumerate.point) -> p.Enumerate.signature) in
  let mats =
    List.map (fun (p : Enumerate.point) ->
        p.Enumerate.design.Design.transform.Transform.imatrix)
  in
  Alcotest.(check (list string)) (label ^ ": signatures") (sigs expected)
    (sigs got);
  Alcotest.(check (list (array (array int)))) (label ^ ": matrices")
    (mats expected) (mats got);
  (* the designs are whole: the full rational analysis of their own
     transforms, on a sample *)
  List.iteri
    (fun i (p : Enumerate.point) ->
      let d = p.Enumerate.design in
      if i mod 50 = 0 && d <> Oracle.analyze d.Design.transform then
        Alcotest.failf "%s: %s is not analyze of its transform" label
          p.Enumerate.signature)
    got

(* one shape per statement structure over the networks (tiny,
   bert-base, ResNet-18 with its strided convolutions) and the Table-II
   workloads *)
let structures () =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (label, stmt) ->
      let key = Signature.structure_fingerprint stmt in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (label, stmt)
      end)
    (List.concat_map
       (fun (net, layers) ->
         List.map (fun (l, s) -> (net ^ "/" ^ l, s)) layers)
       (Network.networks ())
    @ Workloads.all_named ())

let test_design_space_structures () =
  let shapes = structures () in
  Alcotest.(check int) "structures" 7 (List.length shapes);
  List.iter
    (fun (label, stmt) ->
      check_space label (Oracle.design_space stmt)
        (Enumerate.design_space stmt))
    shapes

let test_design_space_options () =
  let mttkrp = Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 in
  check_space "mttkrp exclude_unicast"
    (Oracle.design_space ~exclude_unicast:true mttkrp)
    (Enumerate.design_space ~exclude_unicast:true mttkrp)

let test_matching_designs () =
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let mttkrp = Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 in
  List.iter
    (fun (stmt, name) ->
      let expected = Oracle.matching_designs stmt name in
      let got = Search.matching_designs stmt name in
      Alcotest.(check int) (name ^ " count") (List.length expected)
        (List.length got);
      Alcotest.(check bool) (name ^ " designs") true (expected = got))
    [ (gemm, "MNK-SST"); (gemm, "MNK-TTT"); (gemm, "MN-SSS");
      (conv, "XYP-MST"); (mttkrp, "IKL-UBBB") ]

(* the baselines' systolic-only space: the best design, or none *)
let test_best_supported_design () =
  List.iter
    (fun (label, stmt) ->
      Alcotest.(check bool) label true
        (Oracle.best_supported_design stmt Baselines.polysa
        = Baselines.best_supported_design stmt Baselines.polysa))
    [ ("gemm", Workloads.gemm ~m:64 ~n:64 ~k:64);
      ("batched-gemv: none", Workloads.batched_gemv ~m:8 ~n:8 ~k:8) ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ Alcotest.test_case "candidate order pinned" `Quick
      test_candidate_order_pinned;
    Alcotest.test_case "malformed names refused before the sweep" `Quick
      test_refused_before_sweep;
    Alcotest.test_case "sweep without packed image keys" `Quick
      test_unpacked_images ]
  @ qsuite [ prop_sweep_equals_classify_matrix; prop_tile_keeps_dataflows ]
  @ [ Alcotest.test_case "design_space = oracle, every structure" `Slow
        test_design_space_structures;
      Alcotest.test_case "design_space = oracle, exclusions" `Quick
        test_design_space_options;
      Alcotest.test_case "matching_designs = oracle" `Quick
        test_matching_designs;
      Alcotest.test_case "best_supported_design = oracle" `Quick
        test_best_supported_design ]
