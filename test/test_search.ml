(* The planned STT search against the sweep it replaced.

   [Search.all_designs] sweeps the candidate matrices once per statement
   structure and realises the winning (selection, matrix) pairs against
   each caller's statement.  The oracle below is the direct sweep: every
   candidate is built into a transform of the caller's statement and
   analysed, and the first realiser of each name wins.  Both must agree
   on every name, selection, matrix, per-tensor dataflow and realised
   statement, whatever was planned before. *)

open Tensorlib

let oracle ?selection stmt =
  let sels =
    match selection with
    | Some s -> [ s ]
    | None -> Search.selections stmt ~n:3
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun selected ->
      let analyze = Oracle.analyzer stmt ~selected in
      List.iter
        (fun m ->
          let t = Transform.v stmt ~selected ~matrix:m in
          let d = analyze t in
          if not (Hashtbl.mem table d.Design.name) then
            Hashtbl.add table d.Design.name d)
        (Search.candidate_matrices ~n:(Array.length selected)))
    sels;
  let names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) names

let check_against_oracle ?selection label stmt =
  let expected = oracle ?selection stmt in
  let got = Search.all_designs ?selection stmt in
  Alcotest.(check (list string))
    (label ^ ": names") (List.map fst expected) (List.map fst got);
  let fp = Signature.stmt_fingerprint stmt in
  List.iter2
    (fun (name, (e : Design.t)) (_, (g : Design.t)) ->
      let what s = Printf.sprintf "%s %s: %s" label name s in
      let et = e.Design.transform and gt = g.Design.transform in
      Alcotest.(check string) (what "design name") e.Design.name g.Design.name;
      Alcotest.(check (array int)) (what "selection") et.Transform.selected
        gt.Transform.selected;
      Alcotest.(check (array (array int))) (what "imatrix")
        et.Transform.imatrix gt.Transform.imatrix;
      Alcotest.(check (list string)) (what "dataflows")
        (List.map
           (fun ti -> Dataflow.to_string ti.Design.dataflow)
           e.Design.tensors)
        (List.map
           (fun ti -> Dataflow.to_string ti.Design.dataflow)
           g.Design.tensors);
      Alcotest.(check string) (what "realised statement") fp
        (Signature.stmt_fingerprint gt.Transform.stmt))
    expected got

let tier1 =
  [ ("gemm", Workloads.gemm ~m:4 ~n:4 ~k:5);
    ("conv2d", Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("depthwise", Workloads.depthwise_conv ~k:4 ~y:4 ~x:4 ~p:3 ~q:3);
    ("mttkrp", Workloads.mttkrp ~i:4 ~j:4 ~k:4 ~l:4) ]

let test_tier1_workloads () =
  List.iter (fun (label, stmt) -> check_against_oracle label stmt) tier1

let serve_einsum ~m ~n ~k =
  Parse.stmt "C[m,n] += A[m,k] * B[n,k]"
    ~extents:[ ("m", m); ("n", n); ("k", k) ]

(* the einsum [serve] answers, at the extents its traffic uses; every
   call after the first is a plan hit on the same structure *)
let test_serve_einsum () =
  List.iter
    (fun (m, k) ->
      check_against_oracle
        (Printf.sprintf "serve m=%d k=%d" m k)
        (serve_einsum ~m ~n:4 ~k))
    [ (4, 1); (4, 4); (4, 64); (5, 4) ]

let test_explicit_selections () =
  let gemm = Workloads.gemm ~m:4 ~n:4 ~k:5 in
  let conv = List.assoc "conv2d" tier1 in
  check_against_oracle ~selection:[| 0; 1; 2 |] "gemm mnk" gemm;
  check_against_oracle ~selection:[| 2; 0; 1 |] "gemm kmn" gemm;
  check_against_oracle ~selection:[| 0; 2; 3 |] "conv2d kyx" conv;
  check_against_oracle ~selection:[| 0; 1 |] "gemm 1-D mn" gemm

let plan_stats () =
  List.find
    (fun (s : Par.Cache.stats) -> s.Par.Cache.name = "stt.search_plan")
    (Par.Cache.all_stats ())

(* a plan hit realises against the caller's extents, not the ones the
   plan was built with *)
let test_plan_hit_other_extents () =
  let small = Workloads.mttkrp ~i:2 ~j:3 ~k:2 ~l:3 in
  let large = Workloads.mttkrp ~i:7 ~j:5 ~k:6 ~l:4 in
  ignore (Search.all_designs small);
  let before = plan_stats () in
  check_against_oracle "mttkrp after another extent" large;
  let after = plan_stats () in
  Alcotest.(check int) "no new plan" before.Par.Cache.entries
    after.Par.Cache.entries;
  Alcotest.(check bool) "served from the plan" true
    (after.Par.Cache.hits > before.Par.Cache.hits)

(* the plan reads iterator initials and access matrices only: renamed
   tensors and iterators with the same initials share it, other initials
   (other dataflow names) get their own *)
let test_renamed_structure_shares_plan () =
  let stmt formula names =
    Parse.stmt formula ~extents:(List.combine names [ 3; 5; 2 ])
  in
  ignore
    (Search.all_designs
       (stmt "Out[mm,n1] += X[mm,kappa] * W[n1,kappa]" [ "mm"; "n1"; "kappa" ]));
  let before = plan_stats () in
  check_against_oracle "renamed"
    (stmt "Y2[mm,n1] += U2[mm,kappa] * V2[n1,kappa]" [ "mm"; "n1"; "kappa" ]);
  let after = plan_stats () in
  Alcotest.(check int) "no new plan" before.Par.Cache.entries
    after.Par.Cache.entries;
  Alcotest.(check bool) "served from the plan" true
    (after.Par.Cache.hits > before.Par.Cache.hits);
  check_against_oracle "other initials"
    (stmt "C[p,q] += A[p,r] * B[q,r]" [ "p"; "q"; "r" ]);
  Alcotest.(check int) "a plan of its own" (after.Par.Cache.entries + 1)
    (plan_stats ()).Par.Cache.entries

(* an expired budget aborts the sweep and leaves no plan behind; the
   next call builds the full plan *)
let test_interrupted_plan () =
  let stmt =
    Parse.stmt "Z[u,v] += X[u,w] * Y[w,v]"
      ~extents:[ ("u", 3); ("v", 2); ("w", 5) ]
  in
  let before = plan_stats () in
  (match Search.all_designs ~budget:(Resil.Budget.of_checks 100) stmt with
   | _ -> Alcotest.fail "a 100-poll budget cannot finish a plan"
   | exception Resil.Budget.Expired _ -> ());
  Alcotest.(check int) "no entry after the interrupted build"
    before.Par.Cache.entries (plan_stats ()).Par.Cache.entries;
  check_against_oracle "after interruption" stmt;
  Alcotest.(check int) "one entry after a full build"
    (before.Par.Cache.entries + 1) (plan_stats ()).Par.Cache.entries

let suite =
  [ Alcotest.test_case "all_designs = sweep oracle, tier-1" `Quick
      test_tier1_workloads;
    Alcotest.test_case "all_designs = sweep oracle, serve einsum" `Quick
      test_serve_einsum;
    Alcotest.test_case "all_designs = sweep oracle, explicit selections"
      `Quick test_explicit_selections;
    Alcotest.test_case "plan hit realises the caller's extents" `Quick
      test_plan_hit_other_extents;
    Alcotest.test_case "renamed tensors share a plan" `Quick
      test_renamed_structure_shares_plan;
    Alcotest.test_case "interrupted plan leaves no entry" `Quick
      test_interrupted_plan ]
