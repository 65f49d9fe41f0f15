(* Unit and property tests for the exact linear-algebra substrate. *)

open Tensorlib

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_make () =
  Alcotest.check rat "normalise 2/4" (Rat.make 1 2) (Rat.make 2 4);
  Alcotest.check rat "negative den" (Rat.make (-1) 2) (Rat.make 1 (-2));
  Alcotest.check rat "zero" Rat.zero (Rat.make 0 17);
  Alcotest.check rat "gcd" (Rat.make 3 7) (Rat.make 21 49);
  Alcotest.check_raises "den 0" Rat.Division_by_zero (fun () ->
      ignore (Rat.make 1 0))

let test_rat_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "1/2 / 1/3" (Rat.make 3 2) (Rat.div half third);
  Alcotest.check rat "inv" (Rat.make 2 1) (Rat.inv half);
  Alcotest.check rat "neg" (Rat.make (-1) 2) (Rat.neg half);
  Alcotest.check rat "abs" half (Rat.abs (Rat.neg half));
  Alcotest.check_raises "div by zero" Rat.Division_by_zero (fun () ->
      ignore (Rat.div half Rat.zero))

(* [min_int] has no negation: every operation that would negate it
   raises instead of wrapping *)
let test_rat_min_int () =
  let m = Rat.of_int min_int in
  List.iter
    (fun (what, f) ->
      Alcotest.check_raises what Rat.Overflow (fun () -> ignore (f ())))
    [ ("neg", fun () -> Rat.neg m);
      ("abs", fun () -> Rat.abs m);
      ("inv", fun () -> Rat.inv m);
      ("make 1 min_int", fun () -> Rat.make 1 min_int);
      ("make min_int (-1)", fun () -> Rat.make min_int (-1)) ];
  Alcotest.(check (pair int int)) "min_int / 12 reduces to a fitting fraction"
    (min_int / 4, 3)
    (let r = Rat.make min_int 12 in
     (r.Rat.num, r.Rat.den));
  Alcotest.check rat "min_int / min_int" Rat.one (Rat.make min_int min_int);
  (* the determinant is 2; the wrapped inverse of the pivot read -2 *)
  Alcotest.check_raises "det [[min_int, -2]; [1, 0]]" Rat.Overflow (fun () ->
      ignore (Mat.det (Mat.of_int_rows [ [ min_int; -2 ]; [ 1; 0 ] ])))

let test_rat_compare () =
  Alcotest.(check int) "1/2 < 2/3" (-1) (Rat.compare (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "sign neg" (-1) (Rat.sign (Rat.make (-3) 4));
  Alcotest.(check bool) "is_integer 4/2" true (Rat.is_integer (Rat.make 4 2));
  Alcotest.(check bool) "is_integer 1/2" false (Rat.is_integer (Rat.make 1 2));
  Alcotest.(check int) "to_int" 7 (Rat.to_int (Rat.make 14 2));
  Alcotest.check_raises "to_int fraction"
    (Invalid_argument "Rat.to_int: not an integer") (fun () ->
      ignore (Rat.to_int (Rat.make 1 2)))

let test_rat_to_float () =
  Alcotest.(check (float 1e-12)) "to_float" 0.25 (Rat.to_float (Rat.make 1 4))

let test_vec_basic () =
  let v = Vec.of_ints [ 1; 2; 3 ] and w = Vec.of_ints [ 4; 5; 6 ] in
  Alcotest.check rat "dot" (Rat.of_int 32) (Vec.dot v w);
  Alcotest.(check bool) "add" true
    (Vec.equal (Vec.add v w) (Vec.of_ints [ 5; 7; 9 ]));
  Alcotest.(check bool) "scale" true
    (Vec.equal (Vec.scale (Rat.of_int 2) v) (Vec.of_ints [ 2; 4; 6 ]));
  Alcotest.(check bool) "zero" true (Vec.is_zero (Vec.make 3 Rat.zero));
  Alcotest.(check bool) "basis" true
    (Vec.equal (Vec.basis 3 1) (Vec.of_ints [ 0; 1; 0 ]))

let test_vec_to_integer () =
  let v = Vec.of_list [ Rat.make 1 2; Rat.make (-1) 3; Rat.zero ] in
  Alcotest.(check (array int)) "primitive" [| 3; -2; 0 |] (Vec.to_integer v);
  let neg = Vec.of_ints [ -2; 4 ] in
  Alcotest.(check (array int)) "orientation" [| 1; -2 |] (Vec.to_integer neg);
  Alcotest.check_raises "zero vector"
    (Invalid_argument "Vec.to_integer: zero vector") (fun () ->
      ignore (Vec.to_integer (Vec.make 2 Rat.zero)))

let test_mat_basic () =
  let a = Mat.of_int_rows [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.check rat "det" (Rat.of_int (-2)) (Mat.det a);
  Alcotest.(check int) "rank" 2 (Mat.rank a);
  let at = Mat.transpose a in
  Alcotest.check rat "transpose entry" (Rat.of_int 3) (Mat.get at 0 1);
  let prod = Mat.mul a (Mat.identity 2) in
  Alcotest.(check bool) "a*I = a" true (Mat.equal prod a)

let test_mat_inverse () =
  let a = Mat.of_int_rows [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ] in
  (match Mat.inverse a with
   | None -> Alcotest.fail "invertible matrix reported singular"
   | Some inv ->
     Alcotest.(check bool) "a * a^-1 = I" true
       (Mat.equal (Mat.mul a inv) (Mat.identity 3)));
  let sing = Mat.of_int_rows [ [ 1; 2 ]; [ 2; 4 ] ] in
  Alcotest.(check bool) "singular" true (Mat.inverse sing = None)

let test_mat_null_space () =
  (* GEMM A[m,k] access over (m,n,k): null space is the n direction *)
  let a = Mat.of_int_rows [ [ 1; 0; 0 ]; [ 0; 0; 1 ] ] in
  match Mat.null_space a with
  | [ v ] ->
    Alcotest.(check (array int)) "null dir" [| 0; 1; 0 |] (Vec.to_integer v)
  | basis ->
    Alcotest.failf "expected 1 basis vector, got %d" (List.length basis)

let test_mat_solve () =
  let a = Mat.of_int_rows [ [ 2; 1 ]; [ 1; 3 ] ] in
  let b = Vec.of_ints [ 5; 10 ] in
  (match Mat.solve a b with
   | None -> Alcotest.fail "solvable system reported inconsistent"
   | Some x ->
     Alcotest.(check bool) "a x = b" true (Vec.equal (Mat.mul_vec a x) b));
  let inconsistent = Mat.of_int_rows [ [ 1; 1 ]; [ 1; 1 ] ] in
  Alcotest.(check bool) "inconsistent" true
    (Mat.solve inconsistent (Vec.of_ints [ 1; 2 ]) = None)

let test_mat_pseudo_inverse () =
  (* For invertible matrices the pseudo-inverse is the inverse. *)
  let a = Mat.of_int_rows [ [ 1; 2 ]; [ 3; 5 ] ] in
  let p = Mat.pseudo_inverse a in
  Alcotest.(check bool) "pinv = inv" true
    (Mat.equal (Mat.mul a p) (Mat.identity 2));
  (* Moore–Penrose condition A A+ A = A for a rank-deficient matrix *)
  let r = Mat.of_int_rows [ [ 1; 2 ]; [ 2; 4 ] ] in
  let rp = Mat.pseudo_inverse r in
  Alcotest.(check bool) "A A+ A = A" true
    (Mat.equal (Mat.mul r (Mat.mul rp r)) r);
  (* zero matrix *)
  let z = Mat.zero ~rows:2 ~cols:3 in
  let zp = Mat.pseudo_inverse z in
  Alcotest.(check int) "zero pinv rows" 3 (Mat.rows zp);
  Alcotest.(check int) "zero pinv cols" 2 (Mat.cols zp)

let test_mat_rref_pivots () =
  let a = Mat.of_int_rows [ [ 0; 1; 2 ]; [ 0; 2; 4 ]; [ 1; 0; 0 ] ] in
  let _, pivots = Mat.rref a in
  Alcotest.(check (list int)) "pivot columns" [ 0; 1 ] pivots

let test_mat_cat () =
  let a = Mat.of_int_rows [ [ 1 ]; [ 2 ] ] in
  let b = Mat.of_int_rows [ [ 3 ]; [ 4 ] ] in
  let h = Mat.hcat a b in
  Alcotest.(check int) "hcat cols" 2 (Mat.cols h);
  Alcotest.check rat "hcat entry" (Rat.of_int 3) (Mat.get h 0 1);
  let v = Mat.vcat a b in
  Alcotest.(check int) "vcat rows" 4 (Mat.rows v);
  Alcotest.check rat "vcat entry" (Rat.of_int 4) (Mat.get v 3 0)

(* ---------- properties ---------- *)

let small_int = QCheck.Gen.int_range (-6) 6

let gen_mat n =
  QCheck.Gen.(
    array_size (return (n * n)) small_int >|= fun cells ->
    List.init n (fun i -> List.init n (fun j -> cells.((i * n) + j))))

let arbitrary_mat n =
  QCheck.make ~print:(fun m ->
      String.concat "; "
        (List.map (fun r -> String.concat "," (List.map string_of_int r)) m))
    (gen_mat n)

let prop_det_transpose =
  QCheck.Test.make ~name:"det a = det (transpose a)" ~count:200
    (arbitrary_mat 3) (fun rows ->
      let a = Mat.of_int_rows rows in
      Rat.equal (Mat.det a) (Mat.det (Mat.transpose a)))

let prop_inverse_roundtrip =
  QCheck.Test.make ~name:"a * a^-1 = I when invertible" ~count:200
    (arbitrary_mat 3) (fun rows ->
      let a = Mat.of_int_rows rows in
      match Mat.inverse a with
      | None -> Rat.is_zero (Mat.det a)
      | Some inv -> Mat.equal (Mat.mul a inv) (Mat.identity 3))

let prop_null_space_kills =
  QCheck.Test.make ~name:"null-space vectors satisfy Av = 0" ~count:200
    (arbitrary_mat 3) (fun rows ->
      let a = Mat.of_int_rows rows in
      List.for_all
        (fun v -> Vec.is_zero (Mat.mul_vec a v))
        (Mat.null_space a))

let prop_rank_nullity =
  QCheck.Test.make ~name:"rank + nullity = cols" ~count:200 (arbitrary_mat 3)
    (fun rows ->
      let a = Mat.of_int_rows rows in
      Mat.rank a + List.length (Mat.null_space a) = Mat.cols a)

let prop_pinv_moore_penrose =
  QCheck.Test.make ~name:"A A+ A = A" ~count:100 (arbitrary_mat 3)
    (fun rows ->
      let a = Mat.of_int_rows rows in
      (* intermediate denominators can exceed native ints for adversarial
         matrices; real STT matrices are tiny, so out-of-range cases pass *)
      match Mat.pseudo_inverse a with
      | p -> Mat.equal (Mat.mul a (Mat.mul p a)) a
      | exception Rat.Overflow -> true)

let rat_pair = QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))

let prop_rat_field =
  QCheck.Test.make ~name:"rational field laws" ~count:300
    QCheck.(triple rat_pair rat_pair rat_pair)
    (fun ((a, b), (c, d), (e, f)) ->
      let mk n d = Rat.make n (if d = 0 then 1 else d) in
      let x = mk a b and y = mk c d and z = mk e f in
      Rat.equal (Rat.add x (Rat.add y z)) (Rat.add (Rat.add x y) z)
      && Rat.equal (Rat.mul x (Rat.add y z))
           (Rat.add (Rat.mul x y) (Rat.mul x z))
      && Rat.equal (Rat.add x (Rat.neg x)) Rat.zero)

let suite =
  [ Alcotest.test_case "rat make/normalise" `Quick test_rat_make;
    Alcotest.test_case "rat arithmetic" `Quick test_rat_arith;
    Alcotest.test_case "rat min_int refused" `Quick test_rat_min_int;
    Alcotest.test_case "rat compare" `Quick test_rat_compare;
    Alcotest.test_case "rat to_float" `Quick test_rat_to_float;
    Alcotest.test_case "vec basics" `Quick test_vec_basic;
    Alcotest.test_case "vec to_integer" `Quick test_vec_to_integer;
    Alcotest.test_case "mat basics" `Quick test_mat_basic;
    Alcotest.test_case "mat inverse" `Quick test_mat_inverse;
    Alcotest.test_case "mat null space" `Quick test_mat_null_space;
    Alcotest.test_case "mat solve" `Quick test_mat_solve;
    Alcotest.test_case "mat pseudo-inverse" `Quick test_mat_pseudo_inverse;
    Alcotest.test_case "mat rref pivots" `Quick test_mat_rref_pivots;
    Alcotest.test_case "mat hcat/vcat" `Quick test_mat_cat ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_det_transpose; prop_inverse_roundtrip; prop_null_space_kills;
        prop_rank_nullity; prop_pinv_moore_penrose; prop_rat_field ]
