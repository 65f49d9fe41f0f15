(* Tensor-algebra IR: accesses, shapes, dense tensors, golden executor. *)

open Tensorlib

let test_iter () =
  let i = Iter.v "k" 4 in
  Alcotest.(check string) "name" "k" i.Iter.name;
  Alcotest.(check int) "extent" 4 i.Iter.extent;
  Alcotest.check_raises "bad extent"
    (Invalid_argument "Iter.v: extent must be positive") (fun () ->
      ignore (Iter.v "x" 0));
  let nest = [ Iter.v "a" 2; Iter.v "b" 3 ] in
  Alcotest.(check int) "index_of" 1 (Iter.index_of nest "b");
  Alcotest.check_raises "index_of missing" Not_found (fun () ->
      ignore (Iter.index_of nest "z"))

let test_access_index () =
  (* Conv2D input A[c, y+p, x+q] over (k,c,y,x,p,q) *)
  let a = Access.of_terms "A" ~depth:6 [ [ 1 ]; [ 2; 4 ]; [ 3; 5 ] ] in
  Alcotest.(check int) "rank" 3 (Access.rank a);
  Alcotest.(check (array int)) "index" [| 7; 5; 9 |]
    (Access.index a [| 0; 7; 3; 4; 2; 5 |]);
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Access.index: bad depth") (fun () ->
      ignore (Access.index a [| 0 |]))

let test_access_shape () =
  let stmt = Workloads.conv2d ~k:4 ~c:3 ~y:5 ~x:6 ~p:3 ~q:3 in
  let input = List.hd stmt.Stmt.inputs in
  Alcotest.(check (array int)) "conv input shape (halo)" [| 3; 7; 8 |]
    (Access.shape input stmt.Stmt.iters);
  Alcotest.(check (array int)) "conv output shape" [| 4; 5; 6 |]
    (Access.shape stmt.Stmt.output stmt.Stmt.iters);
  (* one row [c1 c2] over two loops of extent [e]: the largest index
     [(c1 + c2) (e - 1)] may reach [max_int - 1], never wrap *)
  let shape_of c1 c2 e =
    Access.shape (Access.v "B" [| [| c1; c2 |] |]) [ Iter.v "i" e; Iter.v "j" e ]
  in
  Alcotest.(check (array int)) "largest index max_int - 1" [| max_int |]
    (shape_of (max_int - 1) 0 2);
  List.iter
    (fun (what, c1, c2, e, msg) ->
      Alcotest.check_raises what (Invalid_argument ("Access.shape: " ^ msg))
        (fun () -> ignore (shape_of c1 c2 e)))
    [ ("largest index max_int", max_int, 0, 2,
       "an index of B does not fit in an int");
      ("a term wraps", 1 lsl 61, 0, 5, "an index of B does not fit in an int");
      ("the sum wraps", 1 lsl 60, 1 lsl 60, 3,
       "an index of B does not fit in an int");
      (* [min_int * 2] and [-2^61 * 4] both wrap to 0 *)
      ("min_int coefficient", min_int, 0, 3,
       "an index of B can go negative (offsets unsupported)");
      ("-2^61 coefficient", -(1 lsl 61), 0, 5,
       "an index of B can go negative (offsets unsupported)") ];
  Alcotest.(check (array int)) "any coefficient on an extent-1 loop"
    [| 4 |]
    (Access.shape
       (Access.v "B" [| [| min_int; 1 |] |])
       [ Iter.v "i" 1; Iter.v "j" 4 ])

let test_stmt_table2 () =
  (* all six Table II workloads build and render *)
  let formulas =
    List.map
      (fun (name, stmt) -> (name, Format.asprintf "%a" Stmt.pp stmt))
      [ ("GEMM", Workloads.gemm ~m:2 ~n:2 ~k:2);
        ("BGEMV", Workloads.batched_gemv ~m:2 ~n:2 ~k:2);
        ("Conv2D", Workloads.conv2d ~k:2 ~c:2 ~y:2 ~x:2 ~p:2 ~q:2);
        ("DWConv", Workloads.depthwise_conv ~k:2 ~y:2 ~x:2 ~p:2 ~q:2);
        ("MTTKRP", Workloads.mttkrp ~i:2 ~j:2 ~k:2 ~l:2);
        ("TTMc", Workloads.ttmc ~i:2 ~j:2 ~k:2 ~l:2 ~m:2) ]
  in
  Alcotest.(check string) "gemm formula" "C[m, n] += A[m, k] * B[n, k]"
    (List.assoc "GEMM" formulas);
  Alcotest.(check string) "conv formula"
    "C[k, y, x] += A[c, y+p, x+q] * B[k, c, p, q]"
    (List.assoc "Conv2D" formulas);
  Alcotest.(check string) "mttkrp formula"
    "D[i, j] += A[i, k, l] * B[k, j] * C[l, j]"
    (List.assoc "MTTKRP" formulas)

let test_stmt_domain () =
  let stmt = Workloads.gemm ~m:3 ~n:4 ~k:5 in
  Alcotest.(check int) "domain size" 60 (Stmt.domain_size stmt);
  let count = ref 0 in
  Stmt.iter_domain stmt (fun _ -> incr count);
  Alcotest.(check int) "iter_domain count" 60 !count;
  (* lexicographic order: first point all zeros, last all max *)
  let first = ref None and last = ref [||] in
  Stmt.iter_domain stmt (fun x ->
      if !first = None then first := Some (Array.copy x);
      last := Array.copy x);
  Alcotest.(check (array int)) "first" [| 0; 0; 0 |]
    (Option.get !first);
  Alcotest.(check (array int)) "last" [| 2; 3; 4 |] !last

let test_dense () =
  let t = Dense.create [| 2; 3 |] in
  Dense.set t [| 1; 2 |] 42;
  Alcotest.(check int) "get" 42 (Dense.get t [| 1; 2 |]);
  Alcotest.(check int) "flat offset" 5 (Dense.offset t [| 1; 2 |]);
  Alcotest.(check int) "size" 6 (Dense.size t);
  Alcotest.(check (array int)) "strides" [| 3; 1 |] (Dense.strides t);
  Alcotest.check_raises "oob"
    (Invalid_argument
       "Dense.offset: index 3 out of bounds [0,3) at dim 1") (fun () ->
      ignore (Dense.get t [| 0; 3 |]));
  let u = Dense.copy t in
  Dense.set u [| 0; 0 |] 1;
  Alcotest.(check int) "copy is deep" 0 (Dense.get t [| 0; 0 |]);
  let m = Dense.map (fun v -> v * 2) t in
  Alcotest.(check int) "map" 84 (Dense.get m [| 1; 2 |]);
  let acc = ref 0 in
  Dense.iteri (fun idx v -> acc := !acc + v + idx.(0)) t;
  Alcotest.(check int) "iteri" (42 + 3) !acc

let test_exec_gemm () =
  (* 2x2x2 GEMM against hand computation; note B is indexed [n,k] *)
  let stmt = Workloads.gemm ~m:2 ~n:2 ~k:2 in
  let a = Dense.init [| 2; 2 |] (fun i -> (i.(0) * 2) + i.(1) + 1) in
  (* A = [1 2; 3 4] *)
  let b = Dense.init [| 2; 2 |] (fun i -> (i.(0) * 2) + i.(1) + 5) in
  (* B[n,k] = [5 6; 7 8] *)
  let out = Exec.run stmt [ ("A", a); ("B", b) ] in
  (* C[m,n] = sum_k A[m,k] * B[n,k] *)
  Alcotest.(check int) "C00" ((1 * 5) + (2 * 6)) (Dense.get out [| 0; 0 |]);
  Alcotest.(check int) "C01" ((1 * 7) + (2 * 8)) (Dense.get out [| 0; 1 |]);
  Alcotest.(check int) "C10" ((3 * 5) + (4 * 6)) (Dense.get out [| 1; 0 |]);
  Alcotest.(check int) "C11" ((3 * 7) + (4 * 8)) (Dense.get out [| 1; 1 |])

let test_exec_mttkrp () =
  (* three-input product: D[i,j] += A[i,k,l] B[k,j] C[l,j] *)
  let stmt = Workloads.mttkrp ~i:1 ~j:1 ~k:2 ~l:2 in
  let a = Dense.init [| 1; 2; 2 |] (fun i -> i.(1) + i.(2) + 1) in
  let b = Dense.init [| 2; 1 |] (fun i -> i.(0) + 1) in
  let c = Dense.init [| 2; 1 |] (fun i -> i.(0) + 2) in
  let out = Exec.run stmt [ ("A", a); ("B", b); ("C", c) ] in
  (* sum over k,l of A[0,k,l]*B[k,0]*C[l,0]:
     (k,l)=(0,0):1*1*2 (0,1):2*1*3 (1,0):2*2*2 (1,1):3*2*3 = 2+6+8+18=34 *)
  Alcotest.(check int) "D00" 34 (Dense.get out [| 0; 0 |])

let test_exec_deterministic () =
  let stmt = Workloads.gemm ~m:4 ~n:4 ~k:4 in
  let e1 = Exec.alloc_inputs ~seed:7 stmt in
  let e2 = Exec.alloc_inputs ~seed:7 stmt in
  Alcotest.(check bool) "same seed, same data" true
    (Dense.equal (List.assoc "A" e1) (List.assoc "A" e2));
  let e3 = Exec.alloc_inputs ~seed:8 stmt in
  Alcotest.(check bool) "different seed differs" false
    (Dense.equal (List.assoc "A" e1) (List.assoc "A" e3))

let test_exec_accumulates () =
  let stmt = Workloads.gemm ~m:2 ~n:2 ~k:2 in
  let env = Exec.alloc_inputs stmt in
  let out = Exec.alloc_output stmt in
  Exec.run_with stmt env out;
  let snapshot = Dense.copy out in
  Exec.run_with stmt env out;
  let doubled = Dense.map (fun v -> v * 2) snapshot in
  Alcotest.(check bool) "second run accumulates" true
    (Dense.equal out doubled)

(* The strided executor against the point-by-point interpreter it
   replaced: every workload at small extents, parsed einsums with
   compound and scaled indices, one and four inputs, data large enough
   that products and sums wrap, and inputs larger than their accesses
   need (read through their own strides). *)
let test_exec_matches_oracle () =
  let parsed formula extents = Parse.stmt formula ~extents in
  let stmts =
    [ Workloads.gemm ~m:3 ~n:4 ~k:5;
      Workloads.batched_gemv ~m:3 ~n:2 ~k:4;
      Workloads.conv2d ~k:2 ~c:3 ~y:4 ~x:3 ~p:2 ~q:3;
      Workloads.depthwise_conv ~k:2 ~y:3 ~x:4 ~p:3 ~q:2;
      Workloads.mttkrp ~i:2 ~j:3 ~k:4 ~l:2;
      Workloads.ttmc ~i:2 ~j:2 ~k:3 ~l:2 ~m:3;
      Workloads.conv2d_strided ~stride:2 ~k:2 ~c:2 ~y:3 ~x:3 ~p:3 ~q:2;
      Workloads.pointwise_conv ~k:2 ~c:3 ~y:2 ~x:3;
      Workloads.gemv ~m:4 ~k:5;
      parsed "C[k,y,x] += A[c, y+p, x+q] * B[k,c,p,q]"
        [ ("k", 2); ("c", 2); ("y", 3); ("x", 2); ("p", 2); ("q", 3) ];
      parsed "C[k,y,x] += A[c, 2y+p, 3x+q] * B[k,c,p,q]"
        [ ("k", 2); ("c", 2); ("y", 3); ("x", 2); ("p", 2); ("q", 3) ];
      parsed "D[i+j, 2k] += A[i,k]" [ ("i", 3); ("j", 2); ("k", 3) ];
      parsed "E[i] += A[i,j] * B[j] * C[j+i] * D[i]" [ ("i", 3); ("j", 4) ] ]
  in
  let rng = Random.State.make [| 24 |] in
  let wide _ =
    Random.State.bits rng lxor (Random.State.bits rng lsl 30)
    lxor (Random.State.bits rng lsl 60)
  in
  let larger (name, t) =
    let shape = Dense.shape t in
    let big = Dense.init (Array.map (fun e -> e + 2) shape) (fun _ -> 0) in
    Dense.iteri (fun idx v -> Dense.set big idx v) t;
    (name, big)
  in
  List.iter
    (fun stmt ->
      let env = Exec.alloc_inputs stmt in
      List.iter
        (fun (what, env) ->
          Alcotest.(check bool)
            (Format.asprintf "%a, %s" Stmt.pp stmt what)
            true
            (Dense.equal (Exec.run stmt env) (Oracle.exec_run stmt env)))
        [ ("small data", env);
          ("wide data", List.map (fun (n, t) -> (n, Dense.map wide t)) env);
          ("larger inputs", List.map larger env) ])
    stmts

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* A tensor too small for its access, or of another rank, or an access
   whose indices go negative, is rejected up front, naming the tensor,
   before any partial sum reaches the output. *)
let test_exec_rejects_unfit_tensors () =
  let stmt = Workloads.gemm ~m:3 ~n:4 ~k:5 in
  let env = Exec.alloc_inputs stmt in
  let with_b b = ("B", b) :: List.remove_assoc "B" env in
  let out = Exec.run stmt env in
  (* [C[m,n] += A[m,k] * B[n, c k]] with [m = n = 1]: a negative [c]
     reaches a negative index of B, even where [c (k - 1)] wraps to 0 *)
  let scaled c k =
    Stmt.v "scaled"
      ~iters:[ Iter.v "m" 1; Iter.v "n" 1; Iter.v "k" k ]
      ~output:(Access.v "C" [| [| 1; 0; 0 |]; [| 0; 1; 0 |] |])
      ~inputs:
        [ Access.v "A" [| [| 1; 0; 0 |]; [| 0; 0; 1 |] |];
          Access.v "B" [| [| 0; 1; 0 |]; [| 0; 0; c |] |] ]
  in
  let scaled_env k =
    [ ("A", Dense.init [| 1; k |] (fun _ -> 1));
      ("B", Dense.init [| 1; 1 |] (fun _ -> 1)) ]
  in
  List.iter
    (fun (what, stmt, env, out, needle) ->
      let before = Dense.copy out in
      match Exec.run_with stmt env out with
      | () -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names %s: %s" what needle msg)
          true (contains msg needle);
        Alcotest.(check bool) (what ^ ": output unchanged") true
          (Dense.equal out before))
    [ ("small input", stmt, with_b (Dense.create [| 4; 4 |]), out, "tensor B");
      ("input of another rank", stmt, with_b (Dense.create [| 4; 5; 1 |]),
       out, "tensor B");
      ("small output", stmt, env,
       Dense.init [| 3; 3 |] (fun i -> i.(0) + i.(1)), "tensor C");
      ("min_int coefficient", scaled min_int 3, scaled_env 3,
       Dense.init [| 1; 1 |] (fun _ -> 7), "an index of B");
      ("-2^61 coefficient", scaled (-(1 lsl 61)) 5, scaled_env 5,
       Dense.init [| 1; 1 |] (fun _ -> 7), "an index of B") ];
  Alcotest.check_raises "missing input" Not_found (fun () ->
      Exec.run_with stmt (List.remove_assoc "A" env) out)

let test_resnet_shapes () =
  let l2 = Workloads.resnet_layer2 in
  Alcotest.(check int) "layer2 macs" (64 * 64 * 56 * 56 * 3 * 3)
    (Stmt.domain_size l2);
  let l5 = Workloads.resnet_layer5 in
  let x = List.find (fun i -> i.Iter.name = "x") l5.Stmt.iters in
  Alcotest.(check int) "layer5 x=7" 7 x.Iter.extent

(* properties *)

let prop_gemm_matches_naive =
  QCheck.Test.make ~name:"executor matches naive triple loop" ~count:30
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (m, n, k) ->
      let stmt = Workloads.gemm ~m ~n ~k in
      let env = Exec.alloc_inputs stmt in
      let a = List.assoc "A" env and b = List.assoc "B" env in
      let out = Exec.run stmt env in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let expect = ref 0 in
          for kk = 0 to k - 1 do
            expect := !expect + (Dense.get a [| i; kk |] * Dense.get b [| j; kk |])
          done;
          if Dense.get out [| i; j |] <> !expect then ok := false
        done
      done;
      !ok)

let prop_shape_bounds_indices =
  QCheck.Test.make ~name:"every access stays within its shape" ~count:20
    QCheck.(int_range 1 4)
    (fun s ->
      let stmt = Workloads.conv2d ~k:s ~c:s ~y:s ~x:s ~p:2 ~q:2 in
      List.for_all
        (fun access ->
          let shape = Access.shape access stmt.Stmt.iters in
          let ok = ref true in
          Stmt.iter_domain stmt (fun x ->
              let idx = Access.index access x in
              Array.iteri
                (fun d v -> if v < 0 || v >= shape.(d) then ok := false)
                idx);
          !ok)
        (Stmt.tensors stmt))

let suite =
  [ Alcotest.test_case "iterators" `Quick test_iter;
    Alcotest.test_case "access index" `Quick test_access_index;
    Alcotest.test_case "access shape" `Quick test_access_shape;
    Alcotest.test_case "table II formulas" `Quick test_stmt_table2;
    Alcotest.test_case "statement domain" `Quick test_stmt_domain;
    Alcotest.test_case "dense tensors" `Quick test_dense;
    Alcotest.test_case "golden gemm" `Quick test_exec_gemm;
    Alcotest.test_case "golden mttkrp" `Quick test_exec_mttkrp;
    Alcotest.test_case "deterministic inputs" `Quick test_exec_deterministic;
    Alcotest.test_case "run_with accumulates" `Quick test_exec_accumulates;
    Alcotest.test_case "executor = point-by-point oracle" `Quick
      test_exec_matches_oracle;
    Alcotest.test_case "executor rejects unfit tensors up front" `Quick
      test_exec_rejects_unfit_tensors;
    Alcotest.test_case "resnet shapes" `Quick test_resnet_shapes ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_gemm_matches_naive; prop_shape_bounds_indices ]
