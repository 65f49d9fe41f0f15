(* Einsum parser front-end. *)

open Tensorlib

let test_parse_gemm () =
  let parsed =
    Parse.stmt "C[m,n] += A[m,k] * B[n,k]"
      ~extents:[ ("m", 4); ("n", 5); ("k", 6) ]
  in
  let builtin = Workloads.gemm ~m:4 ~n:5 ~k:6 in
  Alcotest.(check string) "same rendering"
    (Format.asprintf "%a" Stmt.pp builtin)
    (Format.asprintf "%a" Stmt.pp parsed);
  (* identical semantics *)
  let env = Exec.alloc_inputs builtin in
  Alcotest.(check bool) "same result" true
    (Dense.equal (Exec.run builtin env) (Exec.run parsed env))

let test_parse_conv_with_sums () =
  let parsed =
    Parse.stmt "C[k,y,x] += A[c, y+p, x+q] * B[k,c,p,q]"
      ~extents:[ ("k", 2); ("c", 2); ("y", 3); ("x", 3); ("p", 2); ("q", 2) ]
  in
  let builtin = Workloads.conv2d ~k:2 ~c:2 ~y:3 ~x:3 ~p:2 ~q:2 in
  let env = Exec.alloc_inputs builtin in
  Alcotest.(check bool) "conv semantics" true
    (Dense.equal (Exec.run builtin env) (Exec.run parsed env))

let test_parse_strided_coefficients () =
  let parsed =
    Parse.stmt "C[k,y,x] += A[c, 2y+p, 2x+q] * B[k,c,p,q]"
      ~extents:[ ("k", 2); ("c", 2); ("y", 2); ("x", 2); ("p", 3); ("q", 3) ]
  in
  let builtin =
    Workloads.conv2d_strided ~stride:2 ~k:2 ~c:2 ~y:2 ~x:2 ~p:3 ~q:3
  in
  let env = Exec.alloc_inputs builtin in
  Alcotest.(check bool) "stride-2 semantics" true
    (Dense.equal (Exec.run builtin env) (Exec.run parsed env))

let test_parse_three_inputs () =
  let parsed =
    Parse.stmt "D[i,j] += A[i,k,l] * B[k,j] * C[l,j]"
      ~extents:[ ("i", 3); ("j", 3); ("k", 3); ("l", 3) ]
  in
  Alcotest.(check int) "3 inputs" 3 (List.length parsed.Stmt.inputs);
  let builtin = Workloads.mttkrp ~i:3 ~j:3 ~k:3 ~l:3 in
  let env = Exec.alloc_inputs builtin in
  Alcotest.(check bool) "mttkrp semantics" true
    (Dense.equal (Exec.run builtin env) (Exec.run parsed env))

let test_parse_whitespace_insensitive () =
  let a =
    Parse.stmt "  C[ m , n ]+=A[m,k]*B[n,k]  "
      ~extents:[ ("m", 2); ("n", 2); ("k", 2) ]
  in
  Alcotest.(check int) "depth" 3 (Stmt.depth a)

let check_error msg f =
  try
    ignore (f ());
    Alcotest.failf "expected Parse_error (%s)" msg
  with Parse.Parse_error _ -> ()

let test_parse_errors () =
  check_error "missing extent" (fun () ->
      Parse.stmt "C[m] += A[m,k] * B[k]" ~extents:[ ("m", 2) ]);
  check_error "no +=" (fun () ->
      Parse.stmt "C[m] A[m]" ~extents:[ ("m", 2) ]);
  check_error "garbage" (fun () ->
      Parse.stmt "C[m] += A[m] ?" ~extents:[ ("m", 2) ]);
  check_error "empty dims" (fun () ->
      Parse.stmt "C[] += A[m]" ~extents:[ ("m", 2) ]);
  check_error "coefficient without iterator" (fun () ->
      Parse.stmt "C[m] += A[2]" ~extents:[ ("m", 2) ]);
  check_error "iterator bound twice" (fun () ->
      Parse.stmt "C[m] += A[m,k] * B[k]"
        ~extents:[ ("m", 2); ("k", 4); ("k", 8) ]);
  check_error "zero extent" (fun () ->
      Parse.stmt "C[m] += A[m]" ~extents:[ ("m", 0) ]);
  check_error "negative extent" (fun () ->
      Parse.stmt "C[m] += A[m]" ~extents:[ ("m", -3) ]);
  check_error "empty iterator name" (fun () ->
      Parse.stmt "C[m] += A[m]" ~extents:[ ("m", 2); ("", 2) ])

let test_parse_end_to_end_hardware () =
  (* the parsed workload drives the whole generator *)
  let stmt =
    Parse.stmt ~name:"custom" "O[i,j] += A[i,k] * B[k,j]"
      ~extents:[ ("i", 4); ("j", 4); ("k", 4) ]
  in
  let d = Search.find_design_exn stmt "IJK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:4 ~cols:4 d env in
  Alcotest.(check bool) "parsed workload matches golden" true
    (Dense.equal (Exec.run stmt env) (Accel.execute acc))

let suite =
  [ Alcotest.test_case "parse gemm" `Quick test_parse_gemm;
    Alcotest.test_case "parse conv sums" `Quick test_parse_conv_with_sums;
    Alcotest.test_case "parse strided" `Quick test_parse_strided_coefficients;
    Alcotest.test_case "parse 3 inputs" `Quick test_parse_three_inputs;
    Alcotest.test_case "parse whitespace" `Quick
      test_parse_whitespace_insensitive;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parsed -> hardware" `Quick
      test_parse_end_to_end_hardware ]
